// Package chaos is the fault-injection harness for the PEACE transport:
// a deterministic, seeded net.PacketConn wrapper (Conn) that drops,
// duplicates, reorders, delays and bit-corrupts datagrams and cuts timed
// bidirectional partitions; one fleet driver (Testbed) that provisions
// 1..N routers and their users, serves them on loopback UDP — with a
// backbone ring when N > 1 — and dials, maintains, restarts, re-keys and
// probes them; and the acceptance drills, each a script over the testbed
// whose report embeds one Verdict: Loopback, RevocationDrill, Soak,
// RestartSoak, MetroSoak, AttackSoak and AttackLatency. cmd/meshsoak and
// the tests run them. The invariants they judge:
//
//   - every client re-establishes a session with the final server
//     incarnation, and both halves of every session agree on keys — no
//     session ever forms from a corrupted handshake;
//   - duplicated requests are answered by reply-cache replay, never by a
//     second expensive verification;
//   - re-attachment and roaming ride resumption tickets: one pairing per
//     client per STEK generation, across restarts and across routers;
//   - revocation state never rolls back: every client ends at the
//     router's final epoch even though the bump raced a restart and a
//     partition, and every router refuses re-offered older bundles.
//
// All fault decisions come from seeded pseudo-random streams, so a run is
// reproducible from its seed; wall-clock scheduling still varies, but the
// invariants are timing-independent.
package chaos
