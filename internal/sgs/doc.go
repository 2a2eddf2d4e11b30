// Package sgs implements the short group signature scheme at the heart of
// PEACE: the variation of the Boneh–Shacham verifier-local-revocation group
// signature (CCS 2004) introduced by Ren & Lou (ICDCS 2008), in which the
// SDH exponent is split into a group component grp_i and a user component
// x_j:
//
//	A_{i,j} = g1^{1/(γ + grp_i + x_j)}.
//
// The split is what enables PEACE's "sophisticated" privacy model: the
// network operator, who knows the revocation tokens A_{i,j} and the map
// grp_i → user group i, can attribute a signature to a *group* but not to a
// user, while a group manager, who knows (grp_i, x_j) per user but not
// A_{i,j}, can attribute nothing on its own.
//
// A signature is the tuple (r, T1, T2, c, s_α, s_x, s_δ) of the paper:
// r seeds the derivation of the per-message bases (u, v), (T1, T2) is a
// linear encryption of A under those bases, and (c, s_α, s_x, s_δ) is a
// Fiat–Shamir proof of knowledge of an SDH pair, with x replaced everywhere
// by grp + x.
//
// The paper's isomorphism ψ: G2 → G1 is only ever applied to outputs of the
// hash H0. On a type-3 curve (no computable ψ) H0 returns scalars (a, b),
// the G2 bases are û = g2^a, v̂ = g2^b, and ψ(û) := g1^a by construction.
// The protocol equations (Eq.1–Eq.3 of the paper) hold verbatim, but the
// construction has a known privacy gap: (a, b) are public, so anyone can
// compute A = T2 − (b/a)·T1 from a signature and link all signatures of one
// key. See DESIGN.md §2 and TestKnownGapTokenRecoverableFromSignature.
//
// Two generator-derivation modes are supported:
//
//   - PerMessageGenerators (the paper's default): (u, v) depend on the
//     message and the signature nonce r, maximizing unlinkability.
//   - FixedGenerators: (u, v) depend on the group public key only, enabling
//     the O(1)-per-token revocation test of BS04 §6 that the paper cites for
//     its "far more efficient revocation check" ("with a little bit
//     sacrifice on user privacy").
//
// Revocation checking, auditing and tracing are one computation, the
// paper's Eq.3 over a token list — does e(T2/A_i, û) = e(T1, v̂) hold for
// some listed A_i, and for which first — and have one implementation, scan
// (scan.go), behind IsRevoked, VerifyWithRevocation, Open, TraceSigner,
// BlindTokenCheck, Verifier.SweepURL and SweepState.Check. What a signature
// shares across the list is computed once; the tokens are then tested eight
// to a pass on bn256's lane-parallel tower where the CPU has it, one at a
// time on the scalar tower elsewhere, with the same verdict, the same index
// and the same operation counts. Verifier cost stays linear in the list:
// the scan must refute a disjunction (some token matches), which no
// randomized pairing product can do — a product proves a conjunction — so
// what can shrink is the constant, not the shape.
//
// Verification has a reference, Verify, that keeps the paper's layout of
// Eq.2, and the Verifier (batch.go), which routers use: one implementation,
// verifyGroup, in three steps — the G1 side of a signature (4
// multi-exponentiations), the pairing product R̃2 = e(A, g2)·e(B, w) against
// two prepared G2 points, the challenge comparison. Only the middle step
// looks at how many signatures there are: two or more go through one pass of
// the lane-parallel tower, eight R̃2 to a pass; one, or any number where the
// CPU lacks the kernels, through MillerCombined and Finalize each. That is
// SIMD over independent signatures, not aggregation — every challenge still
// binds its own R̃2, so every slot keeps its own verdict, the verdict it
// would get alone. Verify, VerifyGroup, BatchVerify and the router's M.2
// path are all this code.
//
// Every signing/verification entry point has a *Counted variant that
// reports how many group exponentiations and pairings were performed, used
// by the benchmark harness to reproduce the paper's operation-count claims
// (8 exp + 2 pairings to sign; 6 exp + (3+2|URL|) pairings to verify).
// Sign computes one live pairing: e(A, g2) is cached on the PrivateKey and
// charged as the second (see OpCounts).
package sgs
