package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/peace-mesh/peace/internal/sgs"
)

// fuzzSeeds builds one valid marshaled copy of each AKA message so the
// fuzzers start from structurally interesting corpora instead of noise.
func fuzzSeeds(f *testing.F) (beacon, accessReq, peerHello []byte) {
	f.Helper()
	tb := newTestbed(f, 1, 2, 1)
	r := tb.routers["MR-0"]
	u, peer := tb.user("0", 0), tb.user("0", 1)

	b, err := r.Beacon()
	if err != nil {
		f.Fatal(err)
	}
	m2, err := u.HandleBeacon(b, "grp-0")
	if err != nil {
		f.Fatal(err)
	}
	if err := peer.ObserveBeacon(b); err != nil {
		f.Fatal(err)
	}
	hello, err := u.StartPeerAuth("grp-0")
	if err != nil {
		f.Fatal(err)
	}
	return b.Marshal(), m2.Marshal(), hello.Marshal()
}

func FuzzUnmarshalBeacon(f *testing.F) {
	seed, _, _ := fuzzSeeds(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := UnmarshalBeacon(data)
		if err != nil {
			return
		}
		// A successfully parsed beacon must re-marshal without panicking
		// and survive a second parse (canonical form is stable).
		out := b.Marshal()
		if _, err := UnmarshalBeacon(out); err != nil {
			t.Fatalf("re-parse of re-marshaled beacon: %v", err)
		}
	})
}

// FuzzUnmarshalAccessRequest holds the M.2 decoder to a stable canonical
// form. Its corpus includes an M.2 whose signature is led by 2, the
// fixed-generator mode, which the decoder must refuse.
func FuzzUnmarshalAccessRequest(f *testing.F) {
	_, seed, _ := fuzzSeeds(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	fixed := fixedModeM2(seed)
	if _, err := UnmarshalAccessRequest(fixed); !errors.Is(err, sgs.ErrInvalidSignature) {
		f.Fatalf("decode of a fixed-mode M.2: %v, want ErrInvalidSignature", err)
	}
	f.Add(fixed)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalAccessRequest(data)
		if err != nil {
			return
		}
		out := m.Marshal()
		m2, err := UnmarshalAccessRequest(out)
		if err != nil {
			t.Fatalf("re-parse of re-marshaled access request: %v", err)
		}
		if !bytes.Equal(out, m2.Marshal()) {
			t.Fatal("access request marshal not stable")
		}
	})
}

// FuzzPeekAccessRequest hardens the pre-decode M.2 peek the ingress
// puzzle gate runs on every handshake datagram before any curve or
// signature work: it must never panic, must accept exactly what the full
// decoder accepts structurally, and must agree with it on the
// puzzle-solution echo.
func FuzzPeekAccessRequest(f *testing.F) {
	_, seed, _ := fuzzSeeds(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, perr := PeekAccessRequest(data)
		m, merr := UnmarshalAccessRequest(data)
		if merr != nil {
			return
		}
		// Everything the full decoder accepts, the peek must accept too (the
		// converse does not hold: the peek skips curve and signature checks).
		if perr != nil {
			t.Fatalf("peek rejected a fully decodable M.2: %v", perr)
		}
		if p.HasSolution != m.HasSolution || p.Solution != m.Solution ||
			!p.PuzzleIssuedAt.Equal(m.PuzzleIssuedAt) || p.PuzzleDifficulty != m.PuzzleDifficulty {
			t.Fatal("peek and full decode disagree on the solution echo")
		}
		if !bytes.Equal(p.RawGJ, m.GJ.Marshal()) || !bytes.Equal(p.RawGR, m.GR.Marshal()) {
			t.Fatal("peek raw shares disagree with decoded points")
		}
		if SessionIDFromRaw(p.RawGR, p.RawGJ) != NewSessionID(m.GR, m.GJ) {
			t.Fatal("raw session id disagrees with decoded session id")
		}
	})
}

// FuzzUnmarshalDataFrame hardens the session data-frame decoder, which the
// transport keepalive path runs on every KindSessionPing/Pong payload —
// attacker-reachable bytes on any endpoint socket.
func FuzzUnmarshalDataFrame(f *testing.F) {
	sess := &Session{ID: SessionID{1, 2, 3}}
	frame := sess.AuthData([]byte("seed payload"))
	f.Add(frame.Marshal())
	f.Add(frame.Marshal()[:16])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		df, err := UnmarshalDataFrame(data)
		if err != nil {
			return
		}
		out := df.Marshal()
		df2, err := UnmarshalDataFrame(out)
		if err != nil {
			t.Fatalf("re-parse of re-marshaled data frame: %v", err)
		}
		if !bytes.Equal(out, df2.Marshal()) {
			t.Fatal("data frame marshal not stable")
		}
	})
}

func FuzzUnmarshalPeerHello(f *testing.F) {
	_, _, seed := fuzzSeeds(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalPeerHello(data)
		if err != nil {
			return
		}
		out := m.Marshal()
		if _, err := UnmarshalPeerHello(out); err != nil {
			t.Fatalf("re-parse of re-marshaled peer hello: %v", err)
		}
	})
}
