package core

import (
	"bytes"
	"errors"
	"math/big"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/sgs"
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

// answerLog is an IngestQueue's answer for tests that submit request i
// with tag i: it keeps each request's result, and a second answer for
// any tag fails the test.
type answerLog struct {
	t     *testing.T
	mu    sync.Mutex
	res   []AccessResult
	times []int
}

func newAnswerLog(t *testing.T, n int) *answerLog {
	return &answerLog{t: t, res: make([]AccessResult, n), times: make([]int, n)}
}

func (a *answerLog) answer(tags []int, out []AccessResult) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, tag := range tags {
		if a.times[tag]++; a.times[tag] > 1 {
			a.t.Errorf("request %d answered %d times", tag, a.times[tag])
		}
		a.res[tag] = out[i]
	}
}

// result returns request i's answer, failing the test if it has none.
func (a *answerLog) result(i int) AccessResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.times[i] == 0 {
		a.t.Fatalf("request %d: no answer", i)
	}
	return a.res[i]
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

	log := newAnswerLog(t, n)
	q := NewIngestQueue(r, n, log.answer)
	q.Start()
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := q.Submit(ms[i], i); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	q.Close()
	if t.Failed() {
		return
	}
	for i := range ms {
		res := log.result(i)
		if res.Err != nil {
			t.Errorf("slot %d: %v", i, res.Err)
			continue
		}
		if _, err := users[i].HandleAccessConfirm(res.Confirm); err != nil {
			t.Errorf("slot %d confirm: %v", i, err)
		}
	}
	if got := r.Sessions(); got != n {
		t.Fatalf("router has %d sessions, want %d", got, n)
	}
}

// TestIngestQueueBackpressure pins the bounded-queue semantics: beyond
// capacity Submit fails fast with ErrQueueFull, the accepted requests are
// answered by Close, and a closed queue returns ErrQueueClosed.
func TestIngestQueueBackpressure(t *testing.T) {
	tb := newTestbed(t, 1, 1, 1)
	r := tb.routers["MR-0"]
	m := batchM2s(t, tb, r, []*User{tb.user("0", 0)})[0]

	// Not started: submissions accumulate so capacity is hit deterministically.
	log := newAnswerLog(t, 3)
	q := NewIngestQueue(r, 2, log.answer)
	for i := 0; i < 2; i++ {
		if err := q.Submit(m, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Submit(m, 2); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: %v", err)
	}

	// Start the drainers; the queued submissions are answered and then the
	// queue shuts down cleanly.
	q.Start()
	q.Close()
	log.result(0)
	log.result(1)
	if log.times[2] != 0 {
		t.Fatal("the refused submission was answered")
	}
	if err := q.Submit(m, 2); !errors.Is(err, ErrQueueClosed) {
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

// TestSweepSetupOnlyVerified pins the DoS order at group scale: in one
// group of eight M.2s with three forged signatures, the revocation scan's
// set-up is given exactly the five that verified, and a group whose every
// signature is forged runs no set-up at all. Each verified request still
// gets its own token passes (one router_sweep_seconds observation) and the
// group one router_sweep_setup_seconds observation.
func TestSweepSetupOnlyVerified(t *testing.T) {
	tb := newTestbed(t, 1, 9, 1)
	r := tb.routers["MR-0"]
	tok, err := tb.no.TokenOf("grp-0", 8) // a URL to sweep, of a user not in the group
	if err != nil {
		t.Fatal(err)
	}
	tb.no.RevokeUserKey(tok)
	tb.pushRevocations(t)
	// A set-up derives û and v̂ for each signature it is given: one hash
	// and two G2 exponentiations.
	var setups []int
	r.onSweepSetup = func(c sgs.OpCounts) {
		if c.Exps != 2*c.Hashes {
			t.Errorf("set-up counts %+v", c)
		}
		setups = append(setups, c.Hashes)
	}
	users := make([]*User, 8)
	for i := range users {
		users[i] = tb.user("0", i)
	}
	forge := func(m *AccessRequest) {
		m.Sig.SX = new(big.Int).Xor(m.Sig.SX, big.NewInt(1))
	}
	hist := func(name string) int64 {
		sm, ok := r.Metrics().Snapshot().Get(name)
		if !ok {
			t.Fatalf("no instrument %s", name)
		}
		return sm.Hist.Count
	}

	ms := batchM2s(t, tb, r, users)
	for _, i := range []int{1, 4, 6} {
		forge(ms[i])
	}
	out := make([]AccessResult, len(ms))
	r.handleGroup(ms, out)
	for i, res := range out {
		if forged := i == 1 || i == 4 || i == 6; forged != errors.Is(res.Err, ErrBadAccessRequest) || !forged && res.Err != nil {
			t.Errorf("slot %d: %v", i, res.Err)
		}
	}
	if len(setups) != 1 || setups[0] != 5 {
		t.Fatalf("set-ups %v for a group of 8 with 3 forged, want [5]", setups)
	}
	if c := hist("router_sweep_setup_seconds"); c != 1 {
		t.Errorf("set-up observations = %d, want 1", c)
	}
	if c := hist("router_sweep_seconds"); c != 5 {
		t.Errorf("sweep observations = %d, want 5", c)
	}

	ms = batchM2s(t, tb, r, users)
	for _, m := range ms {
		forge(m)
	}
	r.handleGroup(ms, out)
	if len(setups) != 1 {
		t.Fatalf("a group of forgeries ran set-up: %v", setups)
	}
	if c := hist("router_sweep_setup_seconds"); c != 1 {
		t.Errorf("set-up observations = %d after a group of forgeries, want 1", c)
	}
}

// TestIngestPipelineExactlyOnce submits 64 distinct M.2s from 8 goroutines
// to a queue whose drainers group them as they find them — valid ones,
// forged signatures, a revoked signer and answers to a retired beacon mixed
// — and checks that every reply arrives exactly once, with the verdict
// HandleAccessRequest gives the same request alone, that a working session
// comes with every confirm, that a signature was verified for exactly the
// requests that passed precheck and set up for its revocation scan for
// exactly those that verified, that Close answers everything accepted, and
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

	// Drainers run set-ups concurrently: the hook only counts.
	var setupGroups, setupSigs atomic.Int64
	r.onSweepSetup = func(c sgs.OpCounts) {
		setupGroups.Add(1)
		setupSigs.Add(int64(c.Hashes))
	}
	log := newAnswerLog(t, n)
	q := NewIngestQueue(r, n, log.answer)
	q.Start()
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += submitters {
				if err := q.Submit(ms[i], i); err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	q.Close() // returns once every accepted request has been answered
	if t.Failed() {
		return
	}

	for i := range ms {
		res := log.result(i)
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
	if c, _ := hist("router_sweep_setup_seconds"); c != setupGroups.Load() || c < 1 || c > groups {
		t.Errorf("%d set-up observations for %d set-ups in %d groups", c, setupGroups.Load(), groups)
	}
	if got := setupSigs.Load(); got != int64(prechecked-forged) {
		t.Errorf("set-ups were given %d signatures, want %d (the verified ones)", got, prechecked-forged)
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

// TestIngestFillsLanes pins the share rule: a drainer takes as many waiting
// requests as one lane pass holds before it leaves any for another core,
// whatever GOMAXPROCS, and a lone request is served at once. The queue is
// stepped with no drainer, so what is waiting is exactly what was
// submitted; every copy answers a retired beacon and fails its precheck,
// since only the grouping is under test.
func TestIngestFillsLanes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tb := newTestbed(t, 1, 1, 1)
	r := tb.routers["MR-0"]
	m := batchM2s(t, tb, r, []*User{tb.user("0", 0)})[0]
	r.RetireBeacon(m.GR)

	for _, c := range []struct {
		waiting int
		groups  []int
	}{
		{1, []int{1}},
		{5, []int{5}},
		{8, []int{8}},
		{9, []int{8, 1}},
		{17, []int{8, 8, 1}},
	} {
		var groups []int
		q := NewIngestQueue(r, c.waiting, func(tags []int, out []AccessResult) {
			for _, res := range out {
				if !errors.Is(res.Err, ErrReplay) {
					t.Errorf("%d waiting: %v, want a replay", c.waiting, res.Err)
				}
			}
			groups = append(groups, len(tags))
		})
		for i := 0; i < c.waiting; i++ {
			if err := q.Submit(m, i); err != nil {
				t.Fatal(err)
			}
		}
		for q.Step() {
		}
		q.Close()
		if !slices.Equal(groups, c.groups) {
			t.Errorf("%d waiting served as groups %v, want %v", c.waiting, groups, c.groups)
		}
	}
}

// TestDHPassOnlySurvivors pins the key pass's place in the M.2 path: in a
// group of eight with a forged signature, a revoked signer and an answer to
// a retired beacon, the pass is given the five survivors and nothing else,
// every key it returns is byte-equal to the scalar ScalarMult(g^{r_j}, r_R),
// and every confirm opens at its user with the router's session keys. A
// lone survivor takes the scalar path to the same key, and a group with no
// survivor runs no pass.
func TestDHPassOnlySurvivors(t *testing.T) {
	tb := newTestbed(t, 1, 8, 1)
	r := tb.routers["MR-0"]
	const forged, revoked, stale = 1, 4, 6
	tok, err := tb.no.TokenOf("grp-0", revoked)
	if err != nil {
		t.Fatal(err)
	}
	tb.no.RevokeUserKey(tok)
	tb.pushRevocations(t)
	var passes [][]*bn256.G1
	var keys []*bn256.G1
	r.onDHPass = func(gjs, ks []*bn256.G1) {
		passes = append(passes, slices.Clone(gjs))
		keys = ks
	}
	// want checks that the last pass was given the requests in slots and
	// that each key in it is what the scalar path computes for its request.
	want := func(ms []*AccessRequest, slots []int) {
		t.Helper()
		if len(passes) == 0 {
			t.Fatal("no key pass")
		}
		gjs := passes[len(passes)-1]
		if !slices.EqualFunc(gjs, slots, func(gj *bn256.G1, slot int) bool { return gj == ms[slot].GJ }) {
			t.Fatalf("the key pass was given %d requests, want slots %v", len(gjs), slots)
		}
		for i, slot := range slots {
			r.mu.Lock()
			st := r.outstanding[string(ms[slot].GR.Marshal())]
			r.mu.Unlock()
			scalar := new(bn256.G1).ScalarMult(ms[slot].GJ, st.rR)
			if !bytes.Equal(keys[i].Marshal(), scalar.Marshal()) {
				t.Errorf("slot %d: key pass and ScalarMult disagree", slot)
			}
		}
	}

	users := make([]*User, 8)
	for i := range users {
		users[i] = tb.user("0", i)
	}
	ms := batchM2s(t, tb, r, users)
	ms[forged].Sig.SX = new(big.Int).Xor(ms[forged].Sig.SX, big.NewInt(1))
	retired, err := r.Beacon()
	if err != nil {
		t.Fatal(err)
	}
	r.RetireBeacon(retired.GR)
	if ms[stale], err = users[stale].HandleBeacon(retired, "grp-0"); err != nil {
		t.Fatal(err)
	}
	out := make([]AccessResult, len(ms))
	r.handleGroup(ms, out)
	for i, class := range map[int]error{forged: ErrBadAccessRequest, revoked: ErrRevokedUser, stale: ErrReplay} {
		if !errors.Is(out[i].Err, class) {
			t.Errorf("slot %d: %v, want %v", i, out[i].Err, class)
		}
	}
	survivors := []int{0, 2, 3, 5, 7}
	want(ms, survivors)
	for _, i := range survivors {
		res := out[i]
		if res.Err != nil {
			t.Fatalf("slot %d: %v", i, res.Err)
		}
		us, err := users[i].HandleAccessConfirm(res.Confirm)
		if err != nil {
			t.Fatalf("slot %d: confirm refused: %v", i, err)
		}
		if us.ID != res.Session.ID || !us.keysEqual(res.Session) {
			t.Errorf("slot %d: session halves disagree", i)
		}
	}

	// One survivor among forgeries: the scalar path, the same key.
	ms = batchM2s(t, tb, r, users[:3])
	for _, m := range ms[1:] {
		m.Sig.SX = new(big.Int).Xor(m.Sig.SX, big.NewInt(1))
	}
	r.handleGroup(ms, out[:3])
	want(ms, []int{0})
	if _, err := users[0].HandleAccessConfirm(out[0].Confirm); err != nil {
		t.Fatalf("lone survivor: confirm refused: %v", err)
	}

	// No survivor: no pass.
	n := len(passes)
	ms = batchM2s(t, tb, r, []*User{users[revoked], users[forged]})
	ms[1].Sig.SX = new(big.Int).Xor(ms[1].Sig.SX, big.NewInt(1))
	r.handleGroup(ms, out[:2])
	if len(passes) != n {
		t.Errorf("a group with no survivor ran %d key passes", len(passes)-n)
	}
}
