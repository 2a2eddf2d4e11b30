// Package core implements the PEACE framework itself: the entities of the
// paper (network operator, trusted third party, user group managers, mesh
// routers, network users, law authority) and the protocol suite that runs
// between them.
//
// The package is organized around the paper's sections:
//
//   - Scheme setup (Section IV.A): split issuance of group private keys —
//     (grp_i, x_j) travels user-ward through the group manager while
//     A_{i,j}, masked with a pad derived from x_j, travels through the
//     offline TTP; ECDSA-signed receipts at every hand-off provide the
//     non-repudiation the tracing protocol relies on (setup.go, no.go,
//     ttp.go, gm.go, user.go).
//
//   - User–router mutual authentication and key agreement (Section IV.B):
//     the M.1 beacon / M.2 access request / M.3 confirmation exchange
//     (messages.go, router.go, user.go), with certificate and CRL checks,
//     URL (user revocation list) scans, replay windows, and
//     Diffie–Hellman key establishment feeding the symmetric session
//     layer (session.go).
//
//   - User–user mutual authentication and key agreement (Section IV.C):
//     the M̃.1–M̃.3 exchange in which both sides authenticate with group
//     signatures (user.go).
//
//   - Privacy-enhanced accountability (Section IV.D): the network
//     operator's audit that attributes a logged session to a user group
//     (and nothing more), and the law-authority trace that combines the
//     operator's audit with the group manager's records to de-anonymize a
//     specific user, checked against the signed receipts (audit.go).
//
//   - DoS defense (Section V.A): client puzzles attached to beacons when a
//     router believes it is under a connection-depletion attack
//     (router.go).
//
// All entities are safe for concurrent use unless noted otherwise; time
// and randomness are injected (Config) so tests can run deterministically.
package core
