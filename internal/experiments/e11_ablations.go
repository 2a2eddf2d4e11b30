package experiments

import (
	"crypto/rand"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/sgs"
)

// E11AblationRow quantifies one implementation design choice by timing
// the system with and without it.
type E11AblationRow struct {
	Name      string
	Baseline  time.Duration // without the technique
	Optimized time.Duration // with it
	Speedup   float64
	Detail    string
	// BaselineFinalExps / OptimizedFinalExps count the final
	// exponentiations each path ran per check, and BaselineHolds /
	// OptimizedHolds are the verdicts the two paths reached on the same
	// inputs (shared-final-exponentiation row only): what the ablation
	// states without a stopwatch.
	BaselineFinalExps, OptimizedFinalExps int
	BaselineHolds, OptimizedHolds         bool
}

// RunE11Ablations measures the ablations DESIGN.md calls out:
//
//   - shared final exponentiation in product-of-pairings checks (used by
//     every Eq.3 revocation/audit test),
//   - fixed-generator signatures enabling the O(1) revocation table
//     (privacy trade-off, E3's fast path),
//   - compressed versus uncompressed signature encodings (wire size, not
//     time: Speedup is the byte ratio).
func RunE11Ablations(iters int) ([]E11AblationRow, error) {
	if iters < 1 {
		iters = 1
	}
	var rows []E11AblationRow

	// --- Shared final exponentiation. ----------------------------------
	{
		a, err := bn256.RandomScalar(rand.Reader)
		if err != nil {
			return nil, err
		}
		p1 := new(bn256.G1).ScalarBaseMult(a)
		p2 := new(bn256.G1).Neg(p1)
		q := new(bn256.G2).Base()

		// Both paths decide e(P,Q)·e(−P,Q) = 1.
		var baselineHolds, optimizedHolds bool
		start := time.Now()
		for i := 0; i < iters; i++ {
			e1 := bn256.Pair(p1, q)
			e2 := bn256.Pair(p2, q)
			baselineHolds = e1.Add(e1, e2).IsOne()
		}
		baseline := time.Since(start) / time.Duration(iters)

		start = time.Now()
		for i := 0; i < iters; i++ {
			acc := bn256.Miller(p1, q)
			acc.Add(acc, bn256.Miller(p2, q))
			optimizedHolds = acc.Finalize().IsOne()
		}
		optimized := time.Since(start) / time.Duration(iters)

		rows = append(rows, E11AblationRow{
			Name:               "shared final exponentiation (Eq.3 token test)",
			Baseline:           baseline,
			Optimized:          optimized,
			Speedup:            ratio(baseline, optimized),
			Detail:             "2 pairings vs 2 Miller loops + 1 final exp",
			BaselineFinalExps:  2,
			OptimizedFinalExps: 1,
			BaselineHolds:      baselineHolds,
			OptimizedHolds:     optimizedHolds,
		})
	}

	// --- Generator modes (per-message vs fixed). ------------------------
	{
		iss, err := sgs.NewIssuer(rand.Reader)
		if err != nil {
			return nil, err
		}
		grp, err := iss.NewGroupComponent(rand.Reader)
		if err != nil {
			return nil, err
		}
		key, err := iss.IssueKey(rand.Reader, grp)
		if err != nil {
			return nil, err
		}
		msg := []byte("ablation")

		timeMode := func(mode sgs.GeneratorMode) (time.Duration, error) {
			start := time.Now()
			for i := 0; i < iters; i++ {
				sig, err := sgs.SignWithMode(rand.Reader, iss.PublicKey(), key, msg, mode)
				if err != nil {
					return 0, err
				}
				if err := sgs.Verify(iss.PublicKey(), msg, sig); err != nil {
					return 0, err
				}
			}
			return time.Since(start) / time.Duration(iters), nil
		}
		perMsg, err := timeMode(sgs.PerMessageGenerators)
		if err != nil {
			return nil, err
		}
		fixed, err := timeMode(sgs.FixedGenerators)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E11AblationRow{
			Name:      "fixed generators (enables O(1) revocation)",
			Baseline:  perMsg,
			Optimized: fixed,
			Speedup:   ratio(perMsg, fixed),
			Detail:    "sign+verify; trade-off: shared bases across signatures",
		})
	}

	// --- Compressed signature encoding (bytes, not time). ---------------
	{
		rows = append(rows, E11AblationRow{
			Name:      "compressed signature encoding",
			Baseline:  time.Duration(sgs.SignatureSize),        // bytes, reported via Detail
			Optimized: time.Duration(sgs.CompactSignatureSize), // bytes
			Speedup:   float64(sgs.SignatureSize) / float64(sgs.CompactSignatureSize),
			Detail:    "bytes on the wire (Baseline/Optimized fields carry byte counts)",
		})
	}
	return rows, nil
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
