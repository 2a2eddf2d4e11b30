// Package bn256 implements a particular bilinear group at roughly a 128-bit
// security level, built from scratch on math/big so that the repository
// depends only on the Go standard library.
//
// The group is a Barreto–Naehrig pairing-friendly elliptic curve defined by
// the BN parameter u = 1868033³ (the same curve as the original Go
// x/crypto/bn256 package). It consists of:
//
//   - G1, a prime-order subgroup of E(F_p) where E: y² = x³ + 3,
//   - G2, a prime-order subgroup of the sextic twist E'(F_p²) where
//     E': y² = x³ + 3/ξ with ξ = i + 3,
//   - GT, the order-n subgroup of F_p¹²*, and
//   - a non-degenerate bilinear map Pair: G1 × G2 → GT, the optimal ate
//     pairing (6u+2 NAF Miller loop + two Frobenius lines).
//
// All derived constants (p, the group order n, the twist coefficient, the
// Frobenius twist factors) are computed from u at package initialization
// rather than transcribed, eliminating a whole class of constant-typo bugs.
// The package additionally implements hash-to-group for G1 and G2 and a
// slow, textbook Tate pairing used by the test suite to cross-check the
// optimal ate pairing.
//
// Arithmetic in F_p runs on gfP, four 64-bit limbs in Montgomery form
// (gfp.go); math/big survives at the API boundary (scalars) and in the
// ref_*.go reference core that the differential tests compare against.
// The field multiplication gfpMul has two implementations and one rule
// choosing between them: on amd64 it is the MULX/ADX assembly kernel in
// gfp_amd64.s, which falls through to gfpMulGeneric on a CPU that CPUID
// reports without BMI2 and ADX; on every other GOARCH, and under
// -tags purego, gfpMul is gfpMulGeneric, the same CIOS algorithm in Go.
//
// A second, lane-parallel tower (gfpx8.go, towerx8.go, lanes.go) does one
// job: PairProductLanes computes eight pairing products ∏ₖ e(P_k, Q_k) over
// the same prepared G2 points Q_k in a single pass, eight field elements to
// a vector in five 52-bit limbs, on six AVX-512 IFMA kernels
// (gfpx8_amd64.s). It returns the same GT elements as MillerCombined and
// Finalize (as Pair, for one factor), byte for byte, at about a fifth of the
// cost per product, and is what the revocation scan (one factor, eight
// tokens) and the grouped signature verification (two factors, eight
// signatures) of internal/sgs run on.
// PackG1Lanes holds the one rule that selects it: the CPU has AVX-512F and
// IFMA with ZMM state enabled (CPUID leaf 7 and XGETBV, read once at init)
// and there are at least two points; otherwise it returns nil and the
// caller pairs point by point on the scalar tower, which is also the only
// path on other GOARCH and under -tags purego. Every kernel has a Go twin,
// a lane loop over the scalar tower, so the lane-parallel tower itself runs
// and is tested on every platform.
//
// The API mirrors the classic bn256 interface (Add/ScalarMult/Marshal on
// wrapper types G1, G2, GT) but is written in multiplicative notation-aware
// terms for the PEACE protocol layer: "exponentiation" in the paper maps to
// ScalarMult here.
//
// This package is a cryptographic reproduction substrate, not a hardened
// production library: operations are not constant-time.
package bn256
