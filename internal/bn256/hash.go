package bn256

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
)

// This file implements deterministic hashing into the three groups and into
// the scalar field. The constructions are the classic try-and-increment
// maps: hash output is interpreted as an x-coordinate candidate and bumped
// by a counter until a curve point is found; for G2 the twist cofactor is
// cleared afterwards. These maps are not constant-time, which is acceptable
// for this reproduction (inputs are public protocol transcripts).

// hashWithTag computes SHA-256("peace/bn256:" || tag || ":" || ctr || msg).
func hashWithTag(tag string, ctr uint32, msg []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("peace/bn256:"))
	h.Write([]byte(tag))
	h.Write([]byte{':'})
	var c [4]byte
	binary.BigEndian.PutUint32(c[:], ctr)
	h.Write(c[:])
	h.Write(msg)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// HashToScalar hashes msg into Z_n*.
func HashToScalar(msg []byte) *big.Int {
	for ctr := uint32(0); ; ctr++ {
		d := hashWithTag("scalar", ctr, msg)
		k := new(big.Int).SetBytes(d[:])
		k.Mod(k, Order)
		if k.Sign() != 0 {
			return k
		}
	}
}

// HashToScalars hashes msg into count independent elements of Z_n*.
func HashToScalars(msg []byte, count int) []*big.Int {
	out := make([]*big.Int, count)
	tagged := make([]byte, 4+len(msg)) // the index, then msg
	copy(tagged[4:], msg)
	for i := range out {
		binary.BigEndian.PutUint32(tagged[:4], uint32(i))
		out[i] = HashToScalar(tagged)
	}
	return out
}

// HashToG1 hashes msg to a point of G1 by try-and-increment. E(F_p) has
// prime order, so every curve point lies in the group. The limb-core Sqrt
// returns the same root as the retired big.Int ModSqrt (p ≡ 3 mod 4), so
// the derived points are byte-identical across cores.
func HashToG1(msg []byte) *G1 {
	for ctr := uint32(0); ; ctr++ {
		d := hashWithTag("g1", ctr, msg)
		x := gfPFromBig(new(big.Int).SetBytes(d[:]))

		// y² = x³ + 3
		var yy, y gfP
		gfpMul(&yy, &x, &x)
		gfpMul(&yy, &yy, &x)
		gfpAdd(&yy, &yy, &curveBGfP)

		if !y.Sqrt(&yy) {
			continue
		}
		// Deterministic sign choice from the hash.
		if d[31]&1 == 1 {
			gfpNeg(&y, &y)
		}
		pt := newCurvePoint()
		pt.x = x
		pt.y = y
		pt.z.SetOne()
		pt.t.SetOne()
		return &G1{p: pt}
	}
}

// HashToG2 hashes msg to a point of G2: try-and-increment on the twist
// followed by cofactor clearing.
func HashToG2(msg []byte) *G2 {
	for ctr := uint32(0); ; ctr++ {
		dx := hashWithTag("g2:x", ctr, msg)
		dy := hashWithTag("g2:y", ctr, msg)
		xCand := newGFp2()
		xCand.x = gfPFromBig(new(big.Int).SetBytes(dx[:]))
		xCand.y = gfPFromBig(new(big.Int).SetBytes(dy[:]))
		if pt := mapToTwistSubgroup(xCand); pt != nil {
			return &G2{p: pt}
		}
	}
}
