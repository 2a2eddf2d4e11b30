package core

import (
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
)

// batchM2s has every user answer the same beacon, returning the access
// requests positionally.
func batchM2s(t *testing.T, tb *testbed, r *MeshRouter, users []*User) []*AccessRequest {
	t.Helper()
	beacon, err := r.Beacon()
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*AccessRequest, len(users))
	for i, u := range users {
		m2, err := u.HandleBeacon(beacon, "grp-0")
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m2
	}
	return ms
}

// TestHandleAccessRequestBatch drives a burst with one forged signature,
// one unknown beacon share and one revoked signer planted among valid
// requests, checking positional attribution and that the survivors obtain
// working sessions.
func TestHandleAccessRequestBatch(t *testing.T) {
	tb := newTestbed(t, 1, 5, 1)
	r := tb.routers["MR-0"]

	// Revoke user 4's key and distribute the URL before the burst.
	tok, err := tb.no.TokenOf("grp-0", 4)
	if err != nil {
		t.Fatal(err)
	}
	tb.no.RevokeUserKey(tok)
	tb.pushRevocations(t)

	users := make([]*User, 5)
	for i := range users {
		users[i] = tb.user("0", i)
	}
	ms := batchM2s(t, tb, r, users)

	// Slot 1: tampered signature. Slot 2: unknown g^{r_R}. Slot 4 is the
	// revoked user.
	ms[1].Sig.SX = new(big.Int).Add(ms[1].Sig.SX, big.NewInt(1))
	ms[1].Sig.SX.Mod(ms[1].Sig.SX, bn256.Order)
	ms[2].GR = new(bn256.G1).Base()

	results := r.HandleAccessRequestBatch(ms)
	if len(results) != len(ms) {
		t.Fatalf("got %d results for %d requests", len(results), len(ms))
	}
	if !errors.Is(results[1].Err, ErrBadAccessRequest) {
		t.Fatalf("forged slot 1: %v", results[1].Err)
	}
	if !errors.Is(results[2].Err, ErrReplay) {
		t.Fatalf("unknown-GR slot 2: %v", results[2].Err)
	}
	if !errors.Is(results[4].Err, ErrRevokedUser) {
		t.Fatalf("revoked slot 4: %v", results[4].Err)
	}
	for _, i := range []int{0, 3} {
		res := results[i]
		if res.Err != nil {
			t.Fatalf("valid slot %d rejected: %v", i, res.Err)
		}
		us, err := users[i].HandleAccessConfirm(res.Confirm)
		if err != nil {
			t.Fatalf("slot %d confirm: %v", i, err)
		}
		if us.ID != res.Session.ID || !us.keysEqual(res.Session) {
			t.Fatalf("slot %d: session halves disagree", i)
		}
	}

	stats := r.Stats()
	if stats.SessionsEstablished != 2 {
		t.Fatalf("sessions established = %d, want 2", stats.SessionsEstablished)
	}
	if stats.RejectedAuth != 1 || stats.RejectedStale != 1 || stats.RejectedRevoked != 1 {
		t.Fatalf("rejection stats %+v", stats)
	}
	// Only the requests that passed the cheap checks reached a signature
	// verification.
	if stats.ExpensiveVerifications != 4 {
		t.Fatalf("expensive verifications = %d, want 4", stats.ExpensiveVerifications)
	}
}

// TestBatchMatchesSequential runs the same burst through the batch path
// and through per-request HandleAccessRequest on a twin router and checks
// the accept/reject pattern is identical.
func TestBatchMatchesSequential(t *testing.T) {
	tb := newTestbed(t, 1, 3, 2)
	rBatch, rSeq := tb.routers["MR-0"], tb.routers["MR-1"]
	users := []*User{tb.user("0", 0), tb.user("0", 1), tb.user("0", 2)}

	msBatch := batchM2s(t, tb, rBatch, users)
	msSeq := batchM2s(t, tb, rSeq, users)
	for _, ms := range [][]*AccessRequest{msBatch, msSeq} {
		ms[1].Sig.C = new(big.Int).Add(ms[1].Sig.C, big.NewInt(1))
		ms[1].Sig.C.Mod(ms[1].Sig.C, bn256.Order)
	}

	batchRes := rBatch.HandleAccessRequestBatch(msBatch)
	for i, m := range msSeq {
		_, _, seqErr := rSeq.HandleAccessRequest(m)
		if (seqErr == nil) != (batchRes[i].Err == nil) {
			t.Fatalf("slot %d: sequential err=%v, batch err=%v", i, seqErr, batchRes[i].Err)
		}
	}
}

// TestIngestQueueServesBurst pushes a concurrent burst through the queue
// and checks every accepted request is answered exactly once.
func TestIngestQueueServesBurst(t *testing.T) {
	const n = 6
	tb := newTestbed(t, 1, n, 1)
	r := tb.routers["MR-0"]
	users := make([]*User, n)
	for i := range users {
		users[i] = tb.user("0", i)
	}
	ms := batchM2s(t, tb, r, users)

	q := NewIngestQueue(r, n)
	defer q.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reply, err := q.Submit(ms[i])
			if err != nil {
				errCh <- fmt.Errorf("submit %d: %w", i, err)
				return
			}
			res := <-reply
			if res.Err != nil {
				errCh <- fmt.Errorf("slot %d: %w", i, res.Err)
				return
			}
			if _, err := users[i].HandleAccessConfirm(res.Confirm); err != nil {
				errCh <- fmt.Errorf("slot %d confirm: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := r.Sessions(); got != n {
		t.Fatalf("router has %d sessions, want %d", got, n)
	}
}

// TestIngestQueueBackpressure pins the bounded-queue semantics: beyond
// capacity Submit fails fast with ErrQueueFull, and a closed queue returns
// ErrQueueClosed.
func TestIngestQueueBackpressure(t *testing.T) {
	tb := newTestbed(t, 1, 1, 1)
	r := tb.routers["MR-0"]
	m := batchM2s(t, tb, r, []*User{tb.user("0", 0)})[0]

	// No drainer: submissions accumulate so capacity is hit deterministically.
	q := newIngestQueue(r, 2)
	if _, err := q.Submit(m); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(m); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(m); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: %v", err)
	}

	// Start the drainers; the queued submissions are answered and then the
	// queue shuts down cleanly.
	q.start()
	q.Close()
	if _, err := q.Submit(m); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("closed submit: %v", err)
	}
}

// verdict reduces an M.2 outcome to its class: nil, or the sentinel the
// transport maps to a reject code.
func verdict(err error) error {
	for _, class := range []error{ErrBadAccessRequest, ErrRevokedUser, ErrReplay} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// TestIngestPipelineExactlyOnce submits 64 distinct M.2s from 8 goroutines
// to a queue whose drainers group them as they find them — valid ones,
// forged signatures, a revoked signer and answers to a retired beacon mixed
// — and checks that every reply arrives exactly once, with the verdict
// HandleAccessRequest gives the same request alone, that a working session
// comes with every confirm, that a signature was verified for exactly the
// requests that passed precheck, that Close answers everything accepted, and
// that the stage histograms counted what went through.
func TestIngestPipelineExactlyOnce(t *testing.T) {
	const n, submitters = 64, 8
	tb := newTestbed(t, 1, 4, 1)
	r := tb.routers["MR-0"]
	tok, err := tb.no.TokenOf("grp-0", 3)
	if err != nil {
		t.Fatal(err)
	}
	tb.no.RevokeUserKey(tok)
	tb.pushRevocations(t)

	live, err := r.Beacon()
	if err != nil {
		t.Fatal(err)
	}
	retired, err := r.Beacon()
	if err != nil {
		t.Fatal(err)
	}
	r.RetireBeacon(retired.GR)

	ms := make([]*AccessRequest, n)
	signers := make([]*User, n)
	want := make([]error, n)
	prechecked := 0
	for i := range ms {
		beacon, user := live, tb.user("0", i%3)
		switch i % 8 {
		case 3, 4: // forged below
			want[i] = ErrBadAccessRequest
		case 5:
			user, want[i] = tb.user("0", 3), ErrRevokedUser
		case 6:
			beacon, want[i] = retired, ErrReplay
		}
		m2, err := user.HandleBeacon(beacon, "grp-0")
		if err != nil {
			t.Fatal(err)
		}
		if want[i] == ErrBadAccessRequest {
			m2.Sig.SX = new(big.Int).Xor(m2.Sig.SX, big.NewInt(1))
		}
		if want[i] != ErrReplay {
			prechecked++
		}
		ms[i], signers[i] = m2, user
	}

	q := NewIngestQueue(r, n)
	replies := make([]<-chan AccessResult, n)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += submitters {
				ch, err := q.Submit(ms[i])
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				replies[i] = ch
			}
		}(g)
	}
	wg.Wait()
	q.Close() // returns once every accepted request has been answered
	if t.Failed() {
		return
	}

	for i, ch := range replies {
		var res AccessResult
		select {
		case res = <-ch:
		default:
			t.Fatalf("request %d: no reply after Close", i)
		}
		select {
		case <-ch:
			t.Fatalf("request %d answered twice", i)
		default:
		}
		if got := verdict(res.Err); got != want[i] {
			t.Errorf("request %d: %v, want %v", i, res.Err, want[i])
			continue
		}
		if res.Err != nil {
			continue
		}
		us, err := signers[i].HandleAccessConfirm(res.Confirm)
		if err != nil {
			t.Errorf("request %d: confirm refused: %v", i, err)
		} else if us.ID != res.Session.ID || !us.keysEqual(res.Session) {
			t.Errorf("request %d: session halves disagree", i)
		}
	}

	stats := r.Stats()
	if stats.ExpensiveVerifications != prechecked {
		t.Errorf("expensive verifications = %d, want %d (requests past precheck)", stats.ExpensiveVerifications, prechecked)
	}
	if stats.RequestsSeen != n {
		t.Errorf("requests seen = %d, want %d", stats.RequestsSeen, n)
	}

	// Stage counts: every request waited once; the verified groups add up to
	// the requests past precheck; a scan ran for every signature that
	// verified and a session was established for every one not revoked.
	hist := func(name string) (count int64, sum time.Duration) {
		sm, ok := r.Metrics().Snapshot().Get(name)
		if !ok {
			t.Fatalf("no instrument %s", name)
		}
		return sm.Hist.Count, time.Duration(sm.Hist.Sum)
	}
	forged, revoked := n/8*2, n/8
	if c, _ := hist("router_ingest_wait_seconds"); c != n {
		t.Errorf("ingest-wait observations = %d, want %d", c, n)
	}
	groups, sizes := hist("router_verify_group_size")
	if sizes != time.Duration(prechecked)*time.Second {
		t.Errorf("group sizes add up to %v signatures, want %d", sizes.Seconds(), prechecked)
	}
	if c, _ := hist("router_verify_seconds"); c != groups || groups < int64(prechecked+bn256.Lanes-1)/bn256.Lanes {
		t.Errorf("%d verify observations for %d groups over %d signatures", c, groups, prechecked)
	}
	if c, _ := hist("router_sweep_seconds"); c != int64(prechecked-forged) {
		t.Errorf("sweep observations = %d, want %d", c, prechecked-forged)
	}
	if c, _ := hist("router_establish_seconds"); c != int64(prechecked-forged-revoked) {
		t.Errorf("establish observations = %d, want %d", c, prechecked-forged-revoked)
	}

	// The same requests one at a time: the verdict a request gets does not
	// depend on the company it was verified in.
	for i, m := range ms {
		if _, _, err := r.HandleAccessRequest(m); verdict(err) != want[i] {
			t.Errorf("request %d alone: %v, want %v", i, err, want[i])
		}
	}
}
