package core

import (
	"crypto/rand"
	"fmt"
	"testing"
	"time"
)

// BenchmarkHandleM2Batch is the router's M.2 path in process, as a serving
// transport feeds it: n wire-decoded access requests from two signers
// against a 16-token URL through HandleAccessRequestBatch, every check kept
// (precheck, Eq.2, the Eq.3 scan, session establishment and the sealed
// M.3). It reports the wall time per request; n = 1 is the lone M.2 of an
// idle router — the scalar verifier, the scan on all its workers — and the
// larger sizes are what a burst leaves in the ingest queue. Run it at
// -cpu 1,2: the groups of a batch are spread over the cores.
func BenchmarkHandleM2Batch(b *testing.B) {
	const users, urlTokens = 15, 16
	tb := newTestbed(b, 1, users, 1)
	r := tb.routers["MR-0"]
	// The users took key slots 0..users−1; the spare slots go on the URL.
	for i := 0; i < urlTokens; i++ {
		tok, err := tb.no.TokenOf("grp-0", users+i)
		if err != nil {
			b.Fatal(err)
		}
		tb.no.RevokeUserKey(tok)
	}
	tb.pushRevocations(b)
	beacon, err := r.Beacon()
	if err != nil {
		b.Fatal(err)
	}

	for _, n := range []int{1, 8, 16, 32} {
		ms := make([]*AccessRequest, n)
		for i := range ms {
			m2, err := tb.user("0", i%2).HandleBeacon(beacon, "grp-0")
			if err != nil {
				b.Fatal(err)
			}
			if ms[i], err = UnmarshalAccessRequest(m2.Marshal()); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, res := range r.HandleAccessRequestBatch(ms) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "µs/req")
		})
	}
}

// BenchmarkIngestBurst is the router's M.2 path as a serving transport
// drives it under a re-attach storm: 64 wire-decoded access requests from
// two signers against a 16-token URL, submitted to a started IngestQueue
// with 32 outstanding, so its drainers cut the groups as they find them.
// It reports the wall time per request and the mean number of signatures
// per group (router_verify_group_size), which is what the queue's share
// rule moves; BenchmarkHandleM2Batch cuts its groups with
// sgs.ForEachGroup instead. Run it at -cpu 1,2.
func BenchmarkIngestBurst(b *testing.B) {
	const users, urlTokens, n, window = 15, 16, 64, 32
	tb := newTestbed(b, 1, users, 1)
	r := tb.routers["MR-0"]
	for i := 0; i < urlTokens; i++ {
		tok, err := tb.no.TokenOf("grp-0", users+i)
		if err != nil {
			b.Fatal(err)
		}
		tb.no.RevokeUserKey(tok)
	}
	tb.pushRevocations(b)
	beacon, err := r.Beacon()
	if err != nil {
		b.Fatal(err)
	}
	ms := make([]*AccessRequest, n)
	for i := range ms {
		m2, err := tb.user("0", i%2).HandleBeacon(beacon, "grp-0")
		if err != nil {
			b.Fatal(err)
		}
		if ms[i], err = UnmarshalAccessRequest(m2.Marshal()); err != nil {
			b.Fatal(err)
		}
	}

	slots := make(chan struct{}, window)
	q := NewIngestQueue(r, n, func(tags []int, out []AccessResult) {
		for _, res := range out {
			if res.Err != nil {
				b.Error(res.Err)
			}
			<-slots
		}
	})
	q.Start()
	defer q.Close()
	groupSize := func() (count int64, sigs float64) {
		sm, _ := r.Metrics().Snapshot().Get("router_verify_group_size")
		return sm.Hist.Count, time.Duration(sm.Hist.Sum).Seconds()
	}
	count0, sigs0 := groupSize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, m := range ms {
			slots <- struct{}{}
			if err := q.Submit(m, j); err != nil {
				b.Fatal(err)
			}
		}
	}
	for range window { // the last requests' answers
		slots <- struct{}{}
	}
	b.StopTimer()
	count, sigs := groupSize()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "µs/req")
	b.ReportMetric((sigs-sigs0)/float64(count-count0), "sigs/group")
}

// BenchmarkSessionAuth is the per-message cost of the hybrid design's
// symmetric paths (paper V.C, experiment E5): an HMAC-tagged frame and an
// AES-GCM sealed frame of 256 bytes, each made by the user's half of an
// established session and opened by the router's. sgs's BenchmarkSign and
// BenchmarkVerify are what a message would pay under a group signature.
func BenchmarkSessionAuth(b *testing.B) {
	tb := newTestbed(b, 1, 1, 1)
	us, rs := tb.runAKA(b, tb.user("0", 0), tb.routers["MR-0"], "grp-0")
	payload := make([]byte, 256)

	b.Run("HMACPerMessage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := us.AuthData(payload)
			if _, err := rs.OpenData(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AESGCMPerMessage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := us.SealData(rand.Reader, payload)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rs.OpenData(f); err != nil {
				b.Fatal(err)
			}
		}
	})
}
