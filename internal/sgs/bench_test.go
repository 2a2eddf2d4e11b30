package sgs

import (
	"crypto/rand"
	"errors"
	"fmt"
	"testing"
)

func benchSetup(b *testing.B, nKeys int) (*PublicKey, []*PrivateKey) {
	b.Helper()
	iss, err := NewIssuer(rand.Reader)
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
	return iss.PublicKey(), keys
}

func BenchmarkSign(b *testing.B) {
	pk, keys := benchSetup(b, 1)
	msg := []byte("benchmark message")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sign(rand.Reader, pk, keys[0], msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	pk, keys := benchSetup(b, 1)
	msg := []byte("benchmark message")
	sig, err := Sign(rand.Reader, pk, keys[0], msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(pk, msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyGroup8 is one full group through Verifier.VerifyGroup on
// one goroutine — eight wire-decoded signatures, four lane passes for their
// 32 G1 sums, one lane pass for the eight pairing products, eight challenge
// hashes — and reports the time per signature next to what Verifier.Verify
// costs the same signature alone (BenchmarkVerify times the same through
// Verify).
func BenchmarkVerifyGroup8(b *testing.B) {
	pk, keys := benchSetup(b, 2)
	items := make([]BatchItem, 8)
	for i := range items {
		msg := []byte(fmt.Sprintf("benchmark message %d", i))
		sig, err := Sign(rand.Reader, pk, keys[i%2], msg)
		if err != nil {
			b.Fatal(err)
		}
		if sig, err = ParseSignature(sig.Bytes()); err != nil {
			b.Fatal(err)
		}
		items[i] = BatchItem{Msg: msg, Sig: sig}
	}
	ver := NewVerifier(pk)
	for _, bc := range []struct {
		name   string
		sigs   int
		verify func() error
	}{
		{"group", len(items), func() error { return errors.Join(ver.VerifyGroup(items)...) }},
		{"alone", 1, func() error { return ver.Verify(items[0].Msg, items[0].Sig) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := bc.verify(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*bc.sigs), "µs/sig")
		})
	}
}

func BenchmarkRevocationCheckPerToken(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("tokens=%d", n), func(b *testing.B) {
			pk, keys := benchSetup(b, n+1)
			msg := []byte("benchmark message")
			sig, err := Sign(rand.Reader, pk, keys[0], msg)
			if err != nil {
				b.Fatal(err)
			}
			tokens := make([]*RevocationToken, 0, n)
			for _, k := range keys[1:] {
				tokens = append(tokens, k.Token())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if revoked, _ := IsRevoked(pk, msg, sig, tokens); revoked {
					b.Fatal("unexpected revocation")
				}
			}
		})
	}
}

// BenchmarkSweep16 is the router's per-M.2 URL check as it runs on the ack
// path: SweepState.Check of a per-message-generator signature against 16
// installed tokens, none of them the signer's (every token is tested).
func BenchmarkSweep16(b *testing.B) {
	pk, keys := benchSetup(b, 17)
	msg := []byte("benchmark message")
	sig, err := Sign(rand.Reader, pk, keys[0], msg)
	if err != nil {
		b.Fatal(err)
	}
	tokens := make([]*RevocationToken, 0, 16)
	for _, k := range keys[1:] {
		tokens = append(tokens, k.Token())
	}
	sweep := NewSweepState(pk)
	sweep.Update(1, tokens)
	sweep.Verifier()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if revoked, _ := sweep.Check(msg, sig); revoked {
			b.Fatal("unexpected revocation")
		}
	}
}

// BenchmarkSweepGroup8 is the router's URL check for one verified group:
// eight wire-decoded per-message signatures from two signers against 16
// installed tokens, none of them a signer's, through SweepState.Group (the
// set-up of all eight at once) and a Check of each (its token passes). It
// reports the time per signature next to eight Checks of the same
// signatures one at a time, each with its own set-up (BenchmarkSweep16
// times one).
func BenchmarkSweepGroup8(b *testing.B) {
	pk, keys := benchSetup(b, 18)
	items := make([]BatchItem, 8)
	for i := range items {
		msg := []byte(fmt.Sprintf("benchmark message %d", i))
		sig, err := Sign(rand.Reader, pk, keys[i%2], msg)
		if err != nil {
			b.Fatal(err)
		}
		if sig, err = ParseSignature(sig.Bytes()); err != nil {
			b.Fatal(err)
		}
		items[i] = BatchItem{Msg: msg, Sig: sig}
	}
	tokens := make([]*RevocationToken, 0, 16)
	for _, k := range keys[2:] {
		tokens = append(tokens, k.Token())
	}
	sweep := NewSweepState(pk)
	sweep.Update(1, tokens)
	sweep.Verifier()
	for _, bc := range []struct {
		name  string
		check func() bool
	}{
		{"group", func() bool {
			g := sweep.Group(items)
			for i := range items {
				if revoked, _ := g.Check(i); revoked {
					return true
				}
			}
			return false
		}},
		{"alone", func() bool {
			for _, it := range items {
				if revoked, _ := sweep.Check(it.Msg, it.Sig); revoked {
					return true
				}
			}
			return false
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if bc.check() {
					b.Fatal("unexpected revocation")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(items)), "µs/sig")
		})
	}
}

func BenchmarkOpen(b *testing.B) {
	pk, keys := benchSetup(b, 8)
	msg := []byte("benchmark message")
	sig, err := Sign(rand.Reader, pk, keys[7], msg) // worst case: last token
	if err != nil {
		b.Fatal(err)
	}
	grt := make([]*RevocationToken, len(keys))
	for i, k := range keys {
		grt[i] = k.Token()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Open(pk, msg, sig, grt) != 7 {
			b.Fatal("misattributed")
		}
	}
}

func BenchmarkIssueKey(b *testing.B) {
	iss, err := NewIssuer(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	grp, err := iss.NewGroupComponent(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := iss.IssueKey(rand.Reader, grp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignatureMarshal(b *testing.B) {
	pk, keys := benchSetup(b, 1)
	sig, err := Sign(rand.Reader, pk, keys[0], []byte("m"))
	if err != nil {
		b.Fatal(err)
	}
	data := sig.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseSignature(data); err != nil {
			b.Fatal(err)
		}
	}
}
