package transport

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/transport/batchio"
)

// TestShardedServerHandshakes runs concurrent full attaches and ticket
// resumes against a server listening on SO_REUSEPORT multi-sockets (or
// the single-socket demux fallback). Under -race this is the contention
// audit of the multi-shard loop: every counter bump, reply-cache touch
// and session-table insert happens from several loops at once.
func TestShardedServerHandshakes(t *testing.T) {
	const users = 6
	const shards = 4
	ln, err := NewLocalNetwork(core.Config{}, "grp-0", 1, users)
	if err != nil {
		t.Fatal(err)
	}
	conns, err := ListenShards("127.0.0.1:0", shards)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewShardedServer(conns, ln.Routers[0], ServerConfig{BootEpoch: 5})
	defer srv.Close()
	if reusePortAvailable && srv.Shards() != shards {
		t.Fatalf("shards = %d, want %d", srv.Shards(), shards)
	}

	var wg sync.WaitGroup
	errs := make([]error, users)
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := mustListen(t)
			defer conn.Close()
			cl := NewClient(conn, srv.Addr(), ln.Users[i], testClientConfig())
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if _, err := cl.Attach(ctx); err != nil {
				errs[i] = err
				return
			}
			// Re-attach twice via the ticket path.
			for r := 0; r < 2; r++ {
				cl.setSession(nil, 0, "")
				if _, err := cl.AttachOrResume(ctx); err != nil {
					errs[i] = err
					return
				}
			}
			if cl.Stats().ResumeSuccesses() != 2 {
				errs[i] = errShardResume
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("user %d: %v", i, err)
		}
	}

	rs := ln.Routers[0].Stats()
	if rs.SessionsEstablished != users {
		t.Fatalf("sessions established = %d, want %d", rs.SessionsEstablished, users)
	}
	if rs.SessionsResumed != 2*users {
		t.Fatalf("sessions resumed = %d, want %d", rs.SessionsResumed, 2*users)
	}
	// The pairing ran exactly once per user; every re-attach stayed on the
	// symmetric path.
	if rs.ExpensiveVerifications != users {
		t.Fatalf("expensive verifications = %d, want %d", rs.ExpensiveVerifications, users)
	}
	st := srv.Stats()
	if st.Shards() < 1 {
		t.Fatal("shards gauge unset")
	}
	if st.ReplyCacheSize() < int64(users) {
		t.Fatalf("reply-cache gauge %d, want >= %d", st.ReplyCacheSize(), users)
	}
}

// TestShardsSplitTrainsOnOneSocket runs two read loops over one socket,
// each with its own batch conn, while a batched client sends its data as
// GSO trains: whichever loop takes a train must split it, and every
// sealed echo comes back byte for byte.
func TestShardsSplitTrainsOnOneSocket(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mustListen(t), ln.Routers[0], ServerConfig{BootEpoch: 5, Shards: 2, EchoData: true})
	defer srv.Close()
	conn := mustListen(t)
	defer conn.Close()
	cl := NewClient(conn, srv.Addr(), ln.Users[0], testClientConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sess, err := cl.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}

	bc, _ := batchio.Upgrade(conn)
	ring := batchio.NewRing(64, batchio.NewPool(2048))
	defer ring.Close()
	var f core.DataFrame
	const trains, perTrain = 20, 48
	for tr := 0; tr < trains; tr++ {
		// One train at a time, each answered in full before the next
		// leaves: frames opened by two loops at once could overtake each
		// other and trip the replay rule, which is not what this tests.
		out := make([]batchio.Message, perTrain)
		want := make([][]byte, perTrain)
		for i := range out {
			want[i] = []byte(fmt.Sprintf("train %02d frame %02d padded to one size", tr, i))
			buf, err := AppendFrameHeader(nil, KindSessionData, core.SealedDataLen(len(want[i])))
			if err == nil {
				buf, err = sess.AppendSealedData(buf, want[i])
			}
			if err != nil {
				t.Fatal(err)
			}
			out[i].Set(buf, srv.Addr())
		}
		if n, err := bc.WriteBatch(out); err != nil || n != perTrain {
			t.Fatalf("WriteBatch = %d, %v", n, err)
		}
		bc.SetReadDeadline(time.Now().Add(5 * time.Second))
		for got := 0; got < perTrain; {
			ms := ring.Prepare()
			n, err := bc.ReadBatch(ms)
			if err != nil {
				t.Fatalf("train %d: %d/%d echoes: %v", tr, got, perTrain, err)
			}
			for i := 0; i < n; i++ {
				kind, body, err := DecodeFrame(ms[i].Payload())
				if err != nil || kind != KindSessionData {
					t.Fatalf("train %d: echo %d: kind %v, %v", tr, got, kind, err)
				}
				if err := core.UnmarshalDataFrameInto(body, &f); err != nil {
					t.Fatal(err)
				}
				pt, err := sess.OpenDataInto(&f, nil)
				if err != nil {
					t.Fatalf("train %d: echo %d: %v", tr, got, err)
				}
				if !bytes.Equal(pt, want[got]) {
					t.Fatalf("train %d: echo %d = %q, want %q", tr, got, pt, want[got])
				}
				got++
			}
		}
	}
	st := srv.Stats()
	if got := st.DataDelivered(); got != trains*perTrain {
		t.Fatalf("data_delivered = %d, want %d", got, trains*perTrain)
	}
	probe := mustListen(t)
	pbc, _ := batchio.Upgrade(probe)
	gro := batchio.EnableGRO(pbc, nil)
	probe.Close()
	if !gro {
		t.Log("no UDP GRO on this platform: the trains arrived as singles")
		return
	}
	if st.RxTrains() != trains || st.RxTrainSegments() != trains*perTrain || st.RxTruncated() != 0 {
		t.Fatalf("rx_trains/segments/truncated = %d/%d/%d, want %d/%d/0",
			st.RxTrains(), st.RxTrainSegments(), st.RxTruncated(), trains, trains*perTrain)
	}
}

var errShardResume = &shardResumeErr{}

type shardResumeErr struct{}

func (*shardResumeErr) Error() string { return "re-attaches did not ride the ticket path" }

// TestReplyCacheBounded floods the dedup cache far past its configured
// bound and checks eviction holds the gauge at the cap — the reply cache
// must not grow without limit over a long soak.
func TestReplyCacheBounded(t *testing.T) {
	c := newReplyCache(128)
	var sid core.SessionID
	for i := 0; i < 10000; i++ {
		sid[0] = byte(i)
		sid[1] = byte(i >> 8)
		sid[2] = byte(i >> 16)
		c.begin(sid)
	}
	// 32 stripes × (128/32) entries = 128 max.
	if got := c.Len(); got > 128 {
		t.Fatalf("reply cache holds %d entries, bound is 128", got)
	}
	if got := c.Len(); got < 32 {
		t.Fatalf("reply cache holds %d entries — eviction overshot", got)
	}
}
