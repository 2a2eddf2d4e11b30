package core

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/sgs"
)

// Offsets into an encoded M.2: the two length-prefixed DH shares, ts_2,
// the length-prefixed signature (leading byte, R, T1, T2, C, SAlpha, SX,
// SDelta),
// then the puzzle flag.
const (
	m2GJAt   = 4
	m2GRAt   = m2GJAt + bn256.G1Size + 4
	m2SigAt  = m2GRAt + bn256.G1Size + 8 + 4
	m2T1At   = m2SigAt + 1 + 32
	m2T2At   = m2T1At + bn256.G1Size
	m2CAt    = m2T2At + bn256.G1Size
	m2FlagAt = m2SigAt + sgs.SignatureSize
)

// escrowSeeds returns a valid encoded M.2 without a puzzle solution and
// the same request with one.
func escrowSeeds(tb testing.TB) (plain, solved []byte) {
	tb.Helper()
	bed := newTestbed(tb, 1, 1, 1)
	b, err := bed.routers["MR-0"].Beacon()
	if err != nil {
		tb.Fatal(err)
	}
	m2, err := bed.user("0", 0).HandleBeacon(b, "grp-0")
	if err != nil {
		tb.Fatal(err)
	}
	m2.HasSolution = false
	plain = m2.Marshal()
	m2.HasSolution, m2.Solution, m2.PuzzleIssuedAt, m2.PuzzleDifficulty = true, 12345, time.Unix(1, 0), 7
	return plain, m2.Marshal()
}

// mutateM2 returns a copy of a valid M.2 hit by one of the faults a
// corrupt or forged escrow can carry, each aimed at one rule of the
// decoder: lengths and trailing bytes, coordinates and scalars out of
// range, points off the curve or at infinity, the signature's leading
// byte, the puzzle
// flag, and plain bit flips anywhere.
func mutateM2(rng *rand.Rand, seed []byte) []byte {
	m := append([]byte(nil), seed...)
	points := [4]int{m2GJAt, m2GRAt, m2T1At, m2T2At}
	scalars := [5]int{m2SigAt + 1, m2CAt, m2CAt + 32, m2CAt + 64, m2CAt + 96}
	switch rng.Intn(11) {
	case 0: // a bit flip anywhere
		i := rng.Intn(len(m))
		m[i] ^= 1 << rng.Intn(8)
	case 1: // truncated
		m = m[:rng.Intn(len(m))]
	case 2: // trailing bytes
		m = append(m, make([]byte, 1+rng.Intn(4))...)
	case 3: // a coordinate at or above p (the top byte of p is 0x30)
		at := points[rng.Intn(4)] + 32*rng.Intn(2)
		m[at] = 0x30 + byte(rng.Intn(0xd0))
	case 4: // a scalar at or above Order, or just below it
		at := scalars[rng.Intn(5)]
		bn256.Order.FillBytes(m[at : at+32])
		if rng.Intn(2) == 0 {
			m[at+31] -= byte(rng.Intn(2))
		} else {
			m[at+31] += byte(rng.Intn(2))
		}
	case 5: // a point at infinity
		at := points[rng.Intn(4)]
		clear(m[at : at+bn256.G1Size])
	case 6: // a point moved off the curve
		at := points[rng.Intn(4)] + bn256.G1Size - 1
		m[at] ^= 1 << rng.Intn(8)
	case 7: // another valid point in place of this one
		from, to := points[rng.Intn(4)], points[rng.Intn(4)]
		copy(m[to:to+bn256.G1Size], seed[from:from+bn256.G1Size])
	case 8: // the signature's leading byte (only 1 is accepted)
		m[m2SigAt] = byte(rng.Intn(4))
	case 9: // the puzzle flag
		m[m2FlagAt] = byte(rng.Intn(3))
	case 10: // a length prefix
		at := [3]int{m2GJAt - 4, m2GRAt - 4, m2SigAt - 4}[rng.Intn(3)]
		m[at+3] += byte(rng.Intn(3)) - 1
	}
	return m
}

// fixedModeM2 returns a copy of a valid M.2 with its signature's leading
// byte set to 2, the fixed-generator mode the router no longer accepts.
func fixedModeM2(m2 []byte) []byte {
	m := append([]byte(nil), m2...)
	m[m2SigAt] = 2
	return m
}

// agree fails unless CheckAccessRequest and UnmarshalAccessRequest give
// data the same verdict, and reports that verdict.
func agree(t testing.TB, data []byte) bool {
	t.Helper()
	cerr := CheckAccessRequest(data)
	_, derr := UnmarshalAccessRequest(data)
	if (cerr == nil) != (derr == nil) {
		t.Fatalf("check says %v, decoder says %v on %x", cerr, derr, data)
	}
	return cerr == nil
}

// TestCheckAccessRequestAgrees holds the allocation-free escrow check to
// the decoder it stands in for: on valid M.2s and on 20,000 seeded
// mutants of them, it accepts exactly what UnmarshalAccessRequest
// accepts. Both verdicts must occur often, or the mutants test nothing.
func TestCheckAccessRequestAgrees(t *testing.T) {
	plain, solved := escrowSeeds(t)
	rng := rand.New(rand.NewSource(33))
	accepted, n := 0, 20000
	for i := 0; i < n; i++ {
		seed := plain
		if i%2 == 1 {
			seed = solved
		}
		if agree(t, mutateM2(rng, seed)) {
			accepted++
		}
	}
	t.Logf("%d of %d mutants accepted by both", accepted, n)
	if !agree(t, plain) || !agree(t, solved) {
		t.Fatal("a valid M.2 was refused")
	}
	if accepted < n/20 || accepted > n/2 {
		t.Fatalf("%d of %d mutants accepted: the mix no longer exercises both verdicts", accepted, n)
	}
}

// FuzzCheckAccessRequest is the differential of the escrow check against
// the decoder: on any input, CheckAccessRequest accepts if and only if
// UnmarshalAccessRequest does. The corpus starts from valid M.2s, with and
// without a solution, mutants of them, and an M.2 whose signature is led
// by 2, the fixed-generator mode, which both must refuse.
func FuzzCheckAccessRequest(f *testing.F) {
	plain, solved := escrowSeeds(f)
	f.Add(plain)
	f.Add(solved)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		f.Add(mutateM2(rng, plain))
	}
	f.Add([]byte{})
	fixed := fixedModeM2(plain)
	if err := CheckAccessRequest(fixed); !errors.Is(err, sgs.ErrInvalidSignature) {
		f.Fatalf("check of a fixed-mode M.2: %v, want ErrInvalidSignature", err)
	}
	f.Add(fixed)
	f.Fuzz(func(t *testing.T, data []byte) {
		agree(t, data)
	})
}

// BenchmarkEscrowCheck prices what a resume does with its ticket's
// escrow against what it did before the network log kept bytes: the
// in-place check, and the decode into objects.
func BenchmarkEscrowCheck(b *testing.B) {
	plain, _ := escrowSeeds(b)
	b.Run("check", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := CheckAccessRequest(plain); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalAccessRequest(plain); err != nil {
				b.Fatal(err)
			}
		}
	})
}
