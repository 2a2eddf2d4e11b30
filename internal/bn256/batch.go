package bn256

// Pairing is one (G1, G2) argument pair of a pairing product.
type Pairing struct {
	G1 *G1
	G2 *G2
}

// MillerBatch accumulates the Miller values of all pairs into a single
// un-finalized GT element, the product of their Miller values. Identity arguments
// contribute the neutral element, matching Miller. Finalize the result
// once to obtain Π e(G1_i, G2_i) at the cost of a single final
// exponentiation instead of one per pair.
func MillerBatch(pairs []Pairing) *GT {
	acc := newGFp12().SetOne()
	for _, pr := range pairs {
		if pr.G1.p.IsInfinity() || pr.G2.p.IsInfinity() {
			continue
		}
		acc.Mul(acc, miller(pr.G2.p, pr.G1.p))
	}
	return &GT{p: acc}
}

// PairBatch computes the pairing product Π e(G1_i, G2_i) with a shared
// final exponentiation.
func PairBatch(pairs []Pairing) *GT {
	return MillerBatch(pairs).Finalize()
}
