package sgs

// OpCounts tallies the expensive group operations performed by a signing
// or verification call. The benchmark harness compares these tallies with
// the paper's analytical claims (Section V.C): signature generation should
// cost 8 exponentiations and 2 pairings, verification 6 exponentiations
// and 3 + 2·|URL| pairings.
//
// Counting conventions follow the paper: a multi-exponentiation (a single
// product of powers such as u^{s_α}·T1^{−c}) counts as one exponentiation,
// and an exponentiation of a cached pairing value in GT is counted
// separately as GTExps so both accounting conventions can be reported.
//
// Cached pairing values are charged the way the paper charges them, as if
// they were computed on the spot. verify exponentiates the cached e(g1, g2):
// 2 live Pairings + 1 GTExps, read as the paper's 3 pairings. Sign
// exponentiates the e(A, g2) cached on the PrivateKey: it reports that value
// as one of its 2 Pairings and the exponentiation as one of its 8 Exps, so
// SignCounted keeps the paper's 8 + 2 although only one Miller loop and one
// final exponentiation run per signature (the first signature of a key also
// fills the cache).
type OpCounts struct {
	// Exps counts (multi-)exponentiations in G1 and G2.
	Exps int
	// GTExps counts exponentiations of cached pairing values in GT.
	GTExps int
	// Pairings counts bilinear map evaluations (a Miller loop plus its
	// share of a final exponentiation).
	Pairings int
	// Hashes counts hash-to-scalar evaluations.
	Hashes int
}

// Add accumulates o into c.
func (c *OpCounts) Add(o OpCounts) {
	c.Exps += o.Exps
	c.GTExps += o.GTExps
	c.Pairings += o.Pairings
	c.Hashes += o.Hashes
}

// counter is a nil-safe increment helper so that the hot paths can thread
// an optional *OpCounts without branching at every call site.
type counter struct{ c *OpCounts }

func (ct counter) exp(n int) {
	if ct.c != nil {
		ct.c.Exps += n
	}
}

func (ct counter) gtExp(n int) {
	if ct.c != nil {
		ct.c.GTExps += n
	}
}

func (ct counter) pairing(n int) {
	if ct.c != nil {
		ct.c.Pairings += n
	}
}

func (ct counter) hash(n int) {
	if ct.c != nil {
		ct.c.Hashes += n
	}
}
