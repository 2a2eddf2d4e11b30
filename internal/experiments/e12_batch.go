package experiments

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"time"

	"github.com/peace-mesh/peace/internal/sgs"
)

// E12SweepRow is the revocation-sweep latency at one worker count.
type E12SweepRow struct {
	Workers  int
	PerToken time.Duration
}

// E12BatchReport records the batch-verification pipeline measurements:
// per-signature latency through the plain Verify path versus the
// Verifier.BatchVerify pipeline (fixed-base tables, both pairings against
// prepared G2 points under one squaring chain, groups of up to eight
// signatures to a lane pass), plus the parallel URL sweep at several worker
// counts. What a test can hold it to is not on the clock: the two verifiers'
// verdicts on the batch with one slot forged, and the operations each
// charges per signature.
type E12BatchReport struct {
	BatchSize     int
	SequentialPer time.Duration
	BatchPer      time.Duration
	Speedup       float64
	URLSize       int
	Sweep         []E12SweepRow

	// ForgedSlot is the slot whose signature was damaged for the verdict
	// comparison; ReferenceRejects and BatchRejects list the slots each
	// verifier refused.
	ForgedSlot       int
	ReferenceRejects []int
	BatchRejects     []int
	// ReferenceCounts and BatchCounts are the operations charged per
	// signature of the untouched batch (the paper's 6 exponentiations and 3
	// pairings, the third a GT exponentiation of the cached e(g1, g2);
	// 4 and 2 on the rearranged equation).
	ReferenceCounts sgs.OpCounts
	BatchCounts     sgs.OpCounts
}

// RunE12Batch measures a burst of batchSize signatures (distinct signers,
// distinct messages — the router's worst case) verified one-by-one and then
// through the batch pipeline, and the revocation sweep over urlSize tokens.
func RunE12Batch(batchSize, urlSize, iters int) (*E12BatchReport, error) {
	if iters < 1 {
		iters = 1
	}
	iss, err := sgs.NewIssuer(rand.Reader)
	if err != nil {
		return nil, err
	}
	grp, err := iss.NewGroupComponent(rand.Reader)
	if err != nil {
		return nil, err
	}
	nKeys := batchSize
	if urlSize+1 > nKeys {
		nKeys = urlSize + 1
	}
	keys, err := iss.IssueBatch(rand.Reader, grp, nKeys)
	if err != nil {
		return nil, err
	}
	pub := iss.PublicKey()

	items := make([]sgs.BatchItem, batchSize)
	for i := range items {
		msg := []byte(fmt.Sprintf("e12 access request %d", i))
		sig, err := sgs.Sign(rand.Reader, pub, keys[i], msg)
		if err != nil {
			return nil, err
		}
		items[i] = sgs.BatchItem{Msg: msg, Sig: sig}
	}

	start := time.Now()
	for it := 0; it < iters; it++ {
		for _, item := range items {
			if err := sgs.Verify(pub, item.Msg, item.Sig); err != nil {
				return nil, err
			}
		}
	}
	seqPer := time.Since(start) / time.Duration(iters*batchSize)

	ver := sgs.NewVerifier(pub)
	start = time.Now()
	for it := 0; it < iters; it++ {
		for i, err := range ver.BatchVerify(items) {
			if err != nil {
				return nil, fmt.Errorf("batch slot %d: %w", i, err)
			}
		}
	}
	batchPer := time.Since(start) / time.Duration(iters*batchSize)

	rep := &E12BatchReport{
		BatchSize:     batchSize,
		SequentialPer: seqPer,
		BatchPer:      batchPer,
		Speedup:       float64(seqPer) / float64(batchPer),
		URLSize:       urlSize,
		ForgedSlot:    batchSize / 2,
	}

	// Operation counts on the untouched batch, then both verifiers' verdicts
	// with one slot forged.
	if rep.ReferenceCounts, err = sgs.VerifyCounted(pub, items[0].Msg, items[0].Sig); err != nil {
		return nil, err
	}
	_, total := ver.BatchVerifyCounted(items)
	rep.BatchCounts = sgs.OpCounts{
		Exps:     total.Exps / batchSize,
		GTExps:   total.GTExps / batchSize,
		Pairings: total.Pairings / batchSize,
		Hashes:   total.Hashes / batchSize,
	}
	forged := append([]sgs.BatchItem(nil), items...)
	damaged := *forged[rep.ForgedSlot].Sig
	damaged.SX = new(big.Int).Xor(damaged.SX, big.NewInt(1))
	forged[rep.ForgedSlot].Sig = &damaged
	for i, err := range ver.BatchVerify(forged) {
		if err != nil {
			rep.BatchRejects = append(rep.BatchRejects, i)
		}
		if sgs.Verify(pub, forged[i].Msg, forged[i].Sig) != nil {
			rep.ReferenceRejects = append(rep.ReferenceRejects, i)
		}
	}

	// Revocation sweep: the signer is not on the URL, so every token is
	// scanned (worst case).
	tokens := make([]*sgs.RevocationToken, 0, urlSize)
	for _, k := range keys[1 : urlSize+1] {
		tokens = append(tokens, k.Token())
	}
	for _, workers := range []int{1, 2, 4} {
		start = time.Now()
		for it := 0; it < iters; it++ {
			if revoked, _ := ver.SweepURLWorkers(items[0].Msg, items[0].Sig, tokens, workers); revoked {
				return nil, fmt.Errorf("sweep with %d workers: unrevoked signer flagged", workers)
			}
		}
		rep.Sweep = append(rep.Sweep, E12SweepRow{
			Workers:  workers,
			PerToken: time.Since(start) / time.Duration(iters*urlSize),
		})
	}
	return rep, nil
}
