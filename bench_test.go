// Repository-level benchmark harness: one benchmark per evaluation claim
// of the paper (see DESIGN.md §3 and EXPERIMENTS.md). The experiment
// implementations live in internal/experiments and are shared with the
// cmd/peacebench table generator; the benchmarks here re-measure the hot
// paths under testing.B and report the paper-relevant custom metrics.
package peace_test

import (
	"crypto/rand"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/experiments"
	"github.com/peace-mesh/peace/internal/puzzle"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/sgs"
	"github.com/peace-mesh/peace/internal/symcrypto"
)

// benchGroup issues one issuer/group/keys fixture for signature benches.
type benchGroup struct {
	pub  *sgs.PublicKey
	keys []*sgs.PrivateKey
}

func newBenchGroup(b *testing.B, nKeys int) *benchGroup {
	b.Helper()
	iss, err := sgs.NewIssuer(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	grp, err := iss.NewGroupComponent(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	keys, err := iss.IssueBatch(rand.Reader, grp, nKeys)
	if err != nil {
		b.Fatal(err)
	}
	return &benchGroup{pub: iss.PublicKey(), keys: keys}
}

// BenchmarkE1SignatureSize regenerates the communication-overhead
// comparison (paper V.C): signature bytes on this curve and under the
// paper's 170/171-bit parameterization, versus RSA-1024.
func BenchmarkE1SignatureSize(b *testing.B) {
	g := newBenchGroup(b, 1)
	msg := []byte("bench message")
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig, err := sgs.Sign(rand.Reader, g.pub, g.keys[0], msg)
		if err != nil {
			b.Fatal(err)
		}
		size = len(sig.Bytes())
	}
	b.ReportMetric(float64(size), "sig-bytes")
	b.ReportMetric(float64(sgs.PaperSignatureBits())/8, "paper-sig-bytes")
	b.ReportMetric(1024.0/8, "rsa1024-bytes")
}

// BenchmarkE2SignVerify times the two core operations whose op counts the
// paper analyzes (8 exp + 2 pairings sign; 6 exp + 3 pairings verify).
func BenchmarkE2SignVerify(b *testing.B) {
	g := newBenchGroup(b, 1)
	msg := []byte("bench message")

	b.Run("Sign", func(b *testing.B) {
		var counts sgs.OpCounts
		for i := 0; i < b.N; i++ {
			_, c, err := sgs.SignCounted(rand.Reader, g.pub, g.keys[0], msg)
			if err != nil {
				b.Fatal(err)
			}
			counts = c
		}
		b.ReportMetric(float64(counts.Exps), "exps")
		b.ReportMetric(float64(counts.Pairings), "pairings")
	})
	b.Run("Verify", func(b *testing.B) {
		sig, err := sgs.Sign(rand.Reader, g.pub, g.keys[0], msg)
		if err != nil {
			b.Fatal(err)
		}
		var counts sgs.OpCounts
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := sgs.VerifyCounted(g.pub, msg, sig)
			if err != nil {
				b.Fatal(err)
			}
			counts = c
		}
		b.ReportMetric(float64(counts.Exps), "exps")
		b.ReportMetric(float64(counts.Pairings+counts.GTExps), "pairings-paper-conv")
	})
}

// BenchmarkE3RevocationSweep regenerates the verification-cost-vs-|URL|
// series: the linear scan (3 + 2|URL| pairings) and the O(1) fast variant
// (5 pairings) the paper cites.
func BenchmarkE3RevocationSweep(b *testing.B) {
	const maxURL = 20
	g := newBenchGroup(b, maxURL+1)
	msg := []byte("bench message")
	signer := g.keys[0]
	tokens := make([]*sgs.RevocationToken, 0, maxURL)
	for _, k := range g.keys[1:] {
		tokens = append(tokens, k.Token())
	}

	for _, urlSize := range []int{0, 1, 2, 5, 10, 20} {
		url := tokens[:urlSize]
		b.Run(fmt.Sprintf("Linear/URL=%d", urlSize), func(b *testing.B) {
			sig, err := sgs.Sign(rand.Reader, g.pub, signer, msg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sgs.VerifyWithRevocation(g.pub, msg, sig, url); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(2+2*urlSize), "pairings")
		})
		b.Run(fmt.Sprintf("Fast/URL=%d", urlSize), func(b *testing.B) {
			checker := sgs.NewFastRevocationChecker(g.pub, url)
			sig, err := sgs.SignWithMode(rand.Reader, g.pub, signer, msg, sgs.FixedGenerators)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sgs.Verify(g.pub, msg, sig); err != nil {
					b.Fatal(err)
				}
				revoked, _, err := checker.IsRevoked(sig)
				if err != nil {
					b.Fatal(err)
				}
				if revoked {
					b.Fatal("unexpected revocation")
				}
			}
			b.ReportMetric(5, "pairings")
		})
	}
}

// BenchmarkE4Handshake times one full three-message user–router AKA (all
// cryptographic work on both sides, in-memory transport).
func BenchmarkE4Handshake(b *testing.B) {
	tb := newBenchDeployment(b)
	u := tb.user
	r := tb.router
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		beacon, err := r.Beacon()
		if err != nil {
			b.Fatal(err)
		}
		m2, err := u.HandleBeacon(beacon, "grp-0")
		if err != nil {
			b.Fatal(err)
		}
		m3, _, err := r.HandleAccessRequest(m2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := u.HandleAccessConfirm(m3); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(3, "messages")
}

// BenchmarkE5HybridAuth compares per-message authentication costs:
// group-signature (what a naive design pays per message) versus the
// hybrid design's HMAC and AES-GCM paths.
func BenchmarkE5HybridAuth(b *testing.B) {
	tb := newBenchDeployment(b)
	us, rs := tb.establish(b)
	payload := make([]byte, 256)
	g := newBenchGroup(b, 1)

	b.Run("GroupSignaturePerMessage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sig, err := sgs.Sign(rand.Reader, g.pub, g.keys[0], payload)
			if err != nil {
				b.Fatal(err)
			}
			if err := sgs.Verify(g.pub, payload, sig); err != nil {
				b.Fatal(err)
			}
		}
	})
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

// BenchmarkE6Puzzle measures the DoS-defense asymmetry: solving cost
// (attacker/client side) versus verification cost (router side) at the
// default difficulty.
func BenchmarkE6Puzzle(b *testing.B) {
	now := time.Unix(1751600000, 0)
	b.Run("Solve/d=12", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := puzzle.New(rand.Reader, 12, "MR-0", now)
			if err != nil {
				b.Fatal(err)
			}
			p.Solve()
		}
	})
	b.Run("Verify", func(b *testing.B) {
		p, err := puzzle.New(rand.Reader, 12, "MR-0", now)
		if err != nil {
			b.Fatal(err)
		}
		s := p.Solve()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Verify(s, now, time.Minute); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BogusM2RejectionWithPuzzle", func(b *testing.B) {
		// Router-side cost of shedding one solution-less bogus request.
		tb := newBenchDeployment(b)
		tb.router.SetDoSDefense(true)
		beacon, err := tb.router.Beacon()
		if err != nil {
			b.Fatal(err)
		}
		m2, err := tb.user.HandleBeacon(beacon, "grp-0")
		if err != nil {
			b.Fatal(err)
		}
		m2.HasSolution = false
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := tb.router.HandleAccessRequest(m2); !errors.Is(err, core.ErrPuzzleRequired) {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7Audit measures the operator's audit scan per token and the
// full trace.
func BenchmarkE7Audit(b *testing.B) {
	for _, grtSize := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("grt=%d", grtSize), func(b *testing.B) {
			pts, err := experiments.RunE7AuditSweep([]int{grtSize})
			if err != nil {
				b.Fatal(err)
			}
			// The sweep measures a single worst-case audit; report it as
			// the metric and keep b.N loops cheap by reusing the result.
			b.ReportMetric(float64(pts[0].AuditTime.Microseconds()), "audit-us")
			b.ReportMetric(float64(pts[0].TokensScanned), "tokens-scanned")
			for i := 0; i < b.N; i++ {
				_ = pts
			}
		})
	}
}

// BenchmarkE10Primitives times the pairing substrate.
func BenchmarkE10Primitives(b *testing.B) {
	k, err := bn256.RandomScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	g1 := new(bn256.G1).ScalarBaseMult(k)
	g2 := new(bn256.G2).Base()

	b.Run("Pairing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bn256.Pair(g1, g2)
		}
	})
	b.Run("G1Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			new(bn256.G1).ScalarBaseMult(k)
		}
	})
	b.Run("G2Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			new(bn256.G2).ScalarBaseMult(k)
		}
	})
	b.Run("HMAC", func(b *testing.B) {
		key := symcrypto.DeriveKey([]byte("k"), "bench")
		payload := make([]byte, 256)
		for i := 0; i < b.N; i++ {
			symcrypto.MAC(key, uint64(i), payload)
		}
	})
}

// BenchmarkE11BatchVerify compares sixteen independent sgs.Verify calls
// against one Verifier.BatchVerify over the same sixteen signatures. The
// batch path combines the rearranged Eq.2 pairings into a single Miller
// pass — eight signatures to a pass where the lane kernels exist, one
// elsewhere — amortizes the fixed-base tables across the batch and spreads
// the groups over the CPUs; the acceptance target is >=2x.
func BenchmarkE11BatchVerify(b *testing.B) {
	const batch = 16
	g := newBenchGroup(b, batch)
	items := make([]sgs.BatchItem, batch)
	msgs := make([][]byte, batch)
	for i := range items {
		msgs[i] = []byte(fmt.Sprintf("bench message %d", i))
		sig, err := sgs.Sign(rand.Reader, g.pub, g.keys[i], msgs[i])
		if err != nil {
			b.Fatal(err)
		}
		items[i] = sgs.BatchItem{Msg: msgs[i], Sig: sig}
	}

	b.Run("Sequential16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range items {
				if err := sgs.Verify(g.pub, msgs[j], items[j].Sig); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/sig")
	})
	b.Run("Batch16", func(b *testing.B) {
		ver := sgs.NewVerifier(g.pub)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, err := range ver.BatchVerify(items) {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/sig")
	})
}

// BenchmarkE12ParallelSweep measures the concurrent revocation sweep: a
// worst-case (non-revoked) scan of a 64-token URL at increasing worker
// counts, reusing the shared e(-T1, vhat) Miller value across all tokens.
func BenchmarkE12ParallelSweep(b *testing.B) {
	const urlSize = 64
	g := newBenchGroup(b, urlSize+1)
	msg := []byte("bench message")
	sig, err := sgs.Sign(rand.Reader, g.pub, g.keys[0], msg)
	if err != nil {
		b.Fatal(err)
	}
	tokens := make([]*sgs.RevocationToken, 0, urlSize)
	for _, k := range g.keys[1:] {
		tokens = append(tokens, k.Token())
	}
	ver := sgs.NewVerifier(g.pub)

	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("URL=%d/workers=%d", urlSize, workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				revoked, _ := ver.SweepURLWorkers(msg, sig, tokens, workers)
				if revoked {
					b.Fatal("unexpected revocation")
				}
			}
			b.ReportMetric(float64(urlSize), "tokens-scanned")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/urlSize, "ns/token")
		})
	}
}

// benchDeployment is a minimal provisioned deployment for the benches.
type benchDeployment struct {
	no     *core.NetworkOperator
	user   *core.User
	router *core.MeshRouter
}

func newBenchDeployment(b *testing.B) *benchDeployment {
	b.Helper()
	cfg := core.Config{
		Clock:            &core.FixedClock{T: time.Unix(1751600000, 0)},
		FreshnessWindow:  time.Hour,
		PuzzleDifficulty: 8,
	}
	no, err := core.NewNetworkOperator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ttp, err := core.NewTTP(cfg, no.Authority())
	if err != nil {
		b.Fatal(err)
	}
	gm, err := core.NewGroupManager(cfg, "grp-0", no.Authority())
	if err != nil {
		b.Fatal(err)
	}
	if err := no.RegisterUserGroup(gm, ttp, 4); err != nil {
		b.Fatal(err)
	}
	u, err := core.NewUser(cfg, core.Identity{Essential: "bench-user"}, no.Authority(), no.GroupPublicKey())
	if err != nil {
		b.Fatal(err)
	}
	if err := core.EnrollUser(u, gm, ttp); err != nil {
		b.Fatal(err)
	}
	r, err := core.NewMeshRouter(cfg, "MR-0", no.Authority(), no.GroupPublicKey())
	if err != nil {
		b.Fatal(err)
	}
	c, err := no.EnrollRouter("MR-0", r.Public())
	if err != nil {
		b.Fatal(err)
	}
	r.SetCertificate(c)
	crl, url, err := no.RevocationBundles()
	if err != nil {
		b.Fatal(err)
	}
	if err := r.UpdateRevocations(crl, url); err != nil {
		b.Fatal(err)
	}
	for _, snap := range []*revocation.Snapshot{crl.Snapshot, url.Snapshot} {
		if err := u.InstallRevocationSnapshot(snap); err != nil {
			b.Fatal(err)
		}
	}
	return &benchDeployment{no: no, user: u, router: r}
}

func (d *benchDeployment) establish(b *testing.B) (*core.Session, *core.Session) {
	b.Helper()
	beacon, err := d.router.Beacon()
	if err != nil {
		b.Fatal(err)
	}
	m2, err := d.user.HandleBeacon(beacon, "grp-0")
	if err != nil {
		b.Fatal(err)
	}
	m3, rs, err := d.router.HandleAccessRequest(m2)
	if err != nil {
		b.Fatal(err)
	}
	us, err := d.user.HandleAccessConfirm(m3)
	if err != nil {
		b.Fatal(err)
	}
	return us, rs
}
