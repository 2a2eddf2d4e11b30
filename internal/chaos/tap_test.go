package chaos

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/transport"
)

// tappedSession attaches user 0 of a one-router testbed over a tapped link
// and sends n data frames, returning the testbed and what the tap saw.
func tappedSession(t *testing.T, payload []byte, n int) (*Testbed, *Recorder) {
	t.Helper()
	tb, err := NewTestbed(TestbedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	cl, err := tb.Dial(0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{}
	tb.Links[0].Tap(rec.Record)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := cl.Attach(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := cl.SendData(payload); err != nil {
			t.Fatal(err)
		}
	}
	srv := tb.Servers[0].Stats()
	if !tb.poll(func() bool { return srv.DataDelivered() == int64(n) }) {
		t.Fatalf("router delivered %d of %d data frames", srv.DataDelivered(), n)
	}
	return tb, rec
}

// TestEavesdropperSeesOnlyCiphertext taps a client link through an attach
// and three data frames: no datagram on it carries the plaintext or the
// user's identity.
func TestEavesdropperSeesOnlyCiphertext(t *testing.T) {
	secret := []byte("top-secret citizen traffic")
	tb, rec := tappedSession(t, secret, 3)
	if got := len(rec.Frames(transport.KindSessionData)); got != 3 {
		t.Fatalf("tap saw %d data frames, want 3", got)
	}
	uid := []byte(tb.Net.Users[0].ID())
	for i, d := range rec.Datagrams() {
		if bytes.Contains(d, secret) {
			t.Errorf("datagram %d carries the plaintext", i)
		}
		if bytes.Contains(d, uid) {
			t.Errorf("datagram %d carries the uid %q", i, uid)
		}
	}
}

// TestReplayerGainsNothing re-sends, from another socket, the M.2 and the
// data frames a tap captured on an attached client's link: the router
// answers the M.2 from its reply cache (no second verification, no second
// session) and delivers none of the replayed data.
func TestReplayerGainsNothing(t *testing.T) {
	tb, rec := tappedSession(t, []byte("payload"), 2)
	router, srv := tb.Net.Routers[0], tb.Servers[0].Stats()
	before := router.Stats()
	decodeErrors := srv.DecodeErrors()

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	m2, data := rec.Frames(transport.KindAccessRequest), rec.Frames(transport.KindSessionData)
	if len(m2) != 1 || len(data) != 2 {
		t.Fatalf("tap captured %d M.2 and %d data frames, want 1 and 2", len(m2), len(data))
	}
	if err := Replay(conn, tb.Servers[0].Addr(), append(m2, data...)); err != nil {
		t.Fatal(err)
	}
	if !tb.poll(func() bool { return srv.DecodeErrors() == decodeErrors+2 }) {
		t.Fatalf("router refused %d of the 2 replayed data frames", srv.DecodeErrors()-decodeErrors)
	}
	after := router.Stats()
	if after.ExpensiveVerifications != before.ExpensiveVerifications || after.SessionsEstablished != before.SessionsEstablished {
		t.Errorf("replayed M.2: verifications %d → %d, sessions %d → %d",
			before.ExpensiveVerifications, after.ExpensiveVerifications, before.SessionsEstablished, after.SessionsEstablished)
	}
	if got := srv.DataDelivered(); got != 2 {
		t.Errorf("router delivered %d data frames, want the original 2", got)
	}
}

// TestTapLinksNoExchanges is the passive eavesdropper against roaming: it
// taps one client's link through an attach at its home router, a resume
// there, a handoff to the other router and a second resume there, and
// finds no byte string of 16 B or more in the datagrams of two different
// exchanges. A string that another user's same four exchanges also carry
// is a constant of the protocol (a frame header and field length, the STEK
// generation a ticket names), not a handle on this user, and is not
// counted. A ticket carried in the clear fails it: the blob an exchange
// hands out is the clear ticket of the next one's request.
func TestTapLinksNoExchanges(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Routers: 2, Users: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	names := []string{"attach", "resume", "handoff", "second resume"}
	// roam taps user i's link through the four exchanges and returns what
	// the tap saw in each.
	roam := func(i int) [][][]byte {
		cl, err := tb.Dial(i)
		if err != nil {
			t.Fatal(err)
		}
		resume := func() error { _, err := cl.Resume(ctx); return err }
		runs := []func() error{
			func() error { _, err := cl.Attach(ctx); return err },
			resume,
			func() error { cl.Retarget(tb.Servers[(i+1)%2].Addr()); return resume() },
			resume,
		}
		seen := make([][][]byte, len(runs))
		for k, run := range runs {
			rec := &Recorder{}
			tb.Links[i].Tap(rec.Record)
			if err := run(); err != nil {
				t.Fatalf("user %d, %s: %v", i, names[k], err)
			}
			if seen[k] = rec.Datagrams(); len(seen[k]) == 0 {
				t.Fatalf("user %d, %s: the tap saw nothing", i, names[k])
			}
		}
		tb.Links[i].Tap(nil)
		return seen
	}

	const window = 16
	common := map[string]bool{}
	for _, ex := range roam(1) {
		for _, d := range ex {
			for at := 0; at+window <= len(d); at++ {
				common[string(d[at:at+window])] = true
			}
		}
	}
	first := map[string]int{} // a 16-byte string to the first exchange it was in
	for k, ex := range roam(0) {
		for _, d := range ex {
			for at := 0; at+window <= len(d); at++ {
				s := string(d[at : at+window])
				if common[s] {
					continue
				}
				if j, ok := first[s]; !ok {
					first[s] = k
				} else if j != k {
					t.Fatalf("%s and %s share the bytes %x", names[j], names[k], s)
				}
			}
		}
	}
}
