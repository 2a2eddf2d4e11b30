package transport

import (
	"bytes"
	mrand "math/rand"
	"net"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/revocation"
)

// TestReplyCacheIdempotence is the reply-cache property test: k distinct
// access requests, each duplicated several times and delivered in a
// shuffled order — and again after the replies settled — must yield
// exactly k sessions, exactly k expensive verifications, and byte-for-byte
// identical replies per session. Duplicates never trigger a second
// verification; late retransmissions are answered by replay.
func TestReplyCacheIdempotence(t *testing.T) {
	const users = 6
	const dups = 4
	ln, err := NewLocalNetwork(core.Config{}, "grp-0", 1, users)
	if err != nil {
		t.Fatal(err)
	}
	serverConn := mustListen(t)
	srv := NewServer(serverConn, ln.Routers[0], ServerConfig{BootEpoch: 61})
	defer srv.Close()

	b, err := ln.Routers[0].Beacon()
	if err != nil {
		t.Fatal(err)
	}

	type request struct {
		sid   core.SessionID
		frame []byte
	}
	requests := make([]request, 0, users)
	var sends []request
	for i := 0; i < users; i++ {
		// This test bypasses Client.Attach (it hand-delivers raw frames), so
		// converge revocation state the way phase 1.5 would have.
		for _, l := range []revocation.List{revocation.ListURL, revocation.ListCRL} {
			if snap, ok := ln.Routers[0].RevocationSnapshot(l); ok {
				if err := ln.Users[i].InstallRevocationSnapshot(snap); err != nil {
					t.Fatal(err)
				}
			}
		}
		m2, err := ln.Users[i].HandleBeacon(b, "")
		if err != nil {
			t.Fatal(err)
		}
		frame, err := EncodeMessage(m2)
		if err != nil {
			t.Fatal(err)
		}
		r := request{sid: core.NewSessionID(m2.GR, m2.GJ), frame: frame}
		requests = append(requests, r)
		for d := 0; d < dups; d++ {
			sends = append(sends, r)
		}
	}
	rng := mrand.New(mrand.NewSource(97))
	rng.Shuffle(len(sends), func(i, j int) { sends[i], sends[j] = sends[j], sends[i] })

	conn := mustListen(t)
	defer conn.Close()

	replies := make(map[core.SessionID][][]byte)
	collect := func(quiet time.Duration) {
		buf := make([]byte, 65536)
		for {
			_ = conn.SetReadDeadline(time.Now().Add(quiet))
			n, _, err := conn.ReadFrom(buf)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					return
				}
				t.Fatal(err)
			}
			kind, payload, derr := DecodeFrame(buf[:n])
			if derr != nil {
				t.Fatalf("undecodable reply: %v", derr)
			}
			if kind != KindAccessConfirm {
				t.Fatalf("unexpected reply kind %v", kind)
			}
			m, err := core.UnmarshalAccessConfirm(payload)
			if err != nil {
				t.Fatal(err)
			}
			sid := core.NewSessionID(m.GR, m.GJ)
			replies[sid] = append(replies[sid], append([]byte(nil), buf[:n]...))
		}
	}

	// Wave 1: the shuffled burst of originals and duplicates.
	for _, s := range sends {
		if _, err := conn.WriteTo(s.frame, srv.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	collect(2 * time.Second)

	// Wave 2: one late retransmission per session, long after the replies
	// settled — every one must be answered from the cache.
	for _, r := range requests {
		if _, err := conn.WriteTo(r.frame, srv.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	collect(1 * time.Second)

	for i, r := range requests {
		rs := replies[r.sid]
		if len(rs) < 2 {
			t.Fatalf("session %d: %d replies, want >= 2 (original + cached replay)", i, len(rs))
		}
		for j := 1; j < len(rs); j++ {
			if !bytes.Equal(rs[0], rs[j]) {
				t.Fatalf("session %d: reply %d differs from reply 0", i, j)
			}
		}
	}
	if len(replies) != users {
		t.Fatalf("replies for %d sessions, want %d", len(replies), users)
	}

	stats := ln.Routers[0].Stats()
	if stats.SessionsEstablished != users {
		t.Fatalf("sessions established = %d, want %d", stats.SessionsEstablished, users)
	}
	if stats.ExpensiveVerifications != users {
		t.Fatalf("expensive verifications = %d, want %d — duplicates leaked into the pipeline", stats.ExpensiveVerifications, users)
	}
	if got := srv.Stats().Duplicates(); got < int64(users*(dups-1)) {
		t.Fatalf("duplicates suppressed = %d, want >= %d", got, users*(dups-1))
	}
}
