package experiments

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/transport"
	"github.com/peace-mesh/peace/internal/transport/batchio"
)

// E18Row is one cell of the data-plane sweep: sustained sealed-echo
// round trips with the server ingest split across Shards loops and each
// loop moving IOBatch datagrams per recvmmsg/sendmmsg. IOBatch 1 is the
// unbatched baseline (one datagram per syscall on both sides).
type E18Row struct {
	Shards  int
	IOBatch int
	// Packets counts completed round trips (sealed data frame out, sealed
	// echo back); Bytes is the wire volume of the echoes.
	Packets int64
	Bytes   int64
	Elapsed time.Duration
	PPS     float64
	MBPS    float64
	// BatchFillAvg is the server-side datagrams-per-recvmmsg average —
	// how full the ingest rings actually ran.
	BatchFillAvg float64
}

// E18DataPlaneReport is the batched data-plane evaluation: the
// packets-per-second ceiling of the sealed DataFrame echo path with and
// without mmsg batching, across shard counts and batch widths.
type E18DataPlaneReport struct {
	Rows         []E18Row
	PayloadBytes int

	// UnbatchedPPS is the best IOBatch=1 cell, BatchedPPS the best
	// IOBatch>1 cell, SpeedupX their ratio — the headline claim.
	UnbatchedPPS float64
	BatchedPPS   float64
	SpeedupX     float64

	// BatchedIO records whether the mmsg fast path actually engaged on
	// the server sockets (false means the portable fallback ran and the
	// sweep degenerates to a regression check).
	BatchedIO bool

	// NumCPU qualifies the shard rows: on a single-core runner the sweep
	// shows syscall amortization only, not parallel shard scaling.
	NumCPU int
}

// RunE18DataPlane measures steady-state sealed-echo throughput over real
// UDP loopback sockets for every (shards, ioBatch) cell.
func RunE18DataPlane(shardCounts, batchSizes []int, iters int) (*E18DataPlaneReport, error) {
	if iters < 1 {
		iters = 1
	}
	rep := &E18DataPlaneReport{NumCPU: runtime.NumCPU(), PayloadBytes: 64}
	for _, shards := range shardCounts {
		for _, batch := range batchSizes {
			row, batched, err := e18EchoThroughput(shards, batch, rep.PayloadBytes, iters)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, *row)
			rep.BatchedIO = rep.BatchedIO || batched
			if batch == 1 {
				rep.UnbatchedPPS = max(rep.UnbatchedPPS, row.PPS)
			} else {
				rep.BatchedPPS = max(rep.BatchedPPS, row.PPS)
			}
		}
	}
	if rep.UnbatchedPPS > 0 {
		rep.SpeedupX = rep.BatchedPPS / rep.UnbatchedPPS
	}
	return rep, nil
}

// e18EchoThroughput runs one sweep cell: a client fleet blasts sealed
// data frames in bursts through the batch egress spooler and drains the
// sealed echoes through the batch read ring, so the generator amortizes
// syscalls exactly as hard as the server under test.
func e18EchoThroughput(shards, batch, payloadBytes, iters int) (*E18Row, bool, error) {
	const fleet = 4
	ln, err := transport.NewLocalNetwork(core.Config{}, "grp-e18", 1, fleet)
	if err != nil {
		return nil, false, err
	}
	conns, err := transport.ListenShards("127.0.0.1:0", shards)
	if err != nil {
		return nil, false, err
	}
	srv := transport.NewShardedServer(conns, ln.Routers[0], transport.ServerConfig{
		BootEpoch: 1,
		Shards:    shards,
		IOBatch:   batch,
		EchoData:  true,
	})
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	type endpoint struct {
		conn net.PacketConn
		sess *core.Session
	}
	eps := make([]endpoint, fleet)
	for i := 0; i < fleet; i++ {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, false, err
		}
		defer conn.Close()
		cl := transport.NewClient(conn, srv.Addr(), ln.Users[i], transport.ClientConfig{Seed: int64(i) + 1})
		sess, err := cl.Attach(ctx)
		if err != nil {
			return nil, false, fmt.Errorf("e18 shards=%d batch=%d attach %d: %w", shards, batch, i, err)
		}
		eps[i] = endpoint{conn: conn, sess: sess}
	}

	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	window := time.Duration(iters) * 500 * time.Millisecond
	var packets, bytes atomic.Int64
	var firstErr atomic.Value
	raddr := srv.Addr()
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for i := 0; i < fleet; i++ {
		wg.Add(1)
		go func(ep endpoint) {
			defer wg.Done()
			// The generator uses the same batch plumbing as the server:
			// bursts leave through a sendmmsg egress spooler and echoes
			// come back through a recvmmsg ring, both sized like the cell.
			const burst = 64
			bc, _ := batchio.Upgrade(ep.conn)
			pool := batchio.NewPool(2048)
			eg := batchio.NewEgress(bc, batch, time.Millisecond, pool, nil)
			defer eg.Close()
			ring := batchio.NewRing(batch, batchio.NewPool(2048))
			defer ring.Close()
			for time.Now().Before(deadline) {
				for i := 0; i < burst; i++ {
					b := eg.Buffer()
					var err error
					b.B, err = transport.AppendFrameHeader(b.B, transport.KindSessionData, core.SealedDataLen(len(payload)))
					if err == nil {
						b.B, err = ep.sess.AppendSealedData(b.B, payload)
					}
					if err != nil {
						b.Release()
						firstErr.CompareAndSwap(nil, err)
						return
					}
					eg.QueueBuf(b, raddr)
				}
				eg.Flush()
				// Drain what came back; lost echoes (full socket buffers)
				// are abandoned at the read deadline, not retried — the
				// row measures completed round trips.
				got := 0
				if err := bc.SetReadDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				for got < burst {
					ms := ring.Prepare()
					n, err := bc.ReadBatch(ms)
					if err != nil {
						break
					}
					for j := 0; j < n; j++ {
						kind, _, derr := transport.DecodeFrame(ms[j].Payload())
						if derr != nil || kind != transport.KindSessionData {
							continue
						}
						got++
						bytes.Add(int64(ms[j].N))
					}
				}
				packets.Add(int64(got))
			}
		}(eps[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, false, fmt.Errorf("e18 shards=%d batch=%d: %w", shards, batch, err)
	}

	st := srv.Stats()
	row := &E18Row{
		Shards:  srv.Shards(),
		IOBatch: batch,
		Packets: packets.Load(),
		Bytes:   bytes.Load(),
		Elapsed: elapsed,
	}
	if elapsed > 0 {
		row.PPS = float64(row.Packets) / elapsed.Seconds()
		row.MBPS = float64(row.Bytes) / (1 << 20) / elapsed.Seconds()
	}
	if rb := st.ReadBatches(); rb > 0 {
		row.BatchFillAvg = float64(st.ReadDatagrams()) / float64(rb)
	}
	return row, st.BatchedIO(), nil
}
