package puzzle

import (
	"crypto/rand"
	"testing"
	"time"
)

// BenchmarkPuzzle is the DoS defense's asymmetry (paper V.A, experiment
// E6): a client's solve at difficulty 12 against the router's check of the
// solution.
func BenchmarkPuzzle(b *testing.B) {
	now := time.Unix(1751600000, 0)
	b.Run("Solve/d=12", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := New(rand.Reader, 12, "MR-0", now)
			if err != nil {
				b.Fatal(err)
			}
			p.Solve()
		}
	})
	b.Run("Verify", func(b *testing.B) {
		p, err := New(rand.Reader, 12, "MR-0", now)
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
}
