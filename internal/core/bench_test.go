package core

import (
	"fmt"
	"testing"
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
