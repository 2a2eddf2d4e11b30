package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/transport"
	"github.com/peace-mesh/peace/internal/transport/batchio"
)

// echoSampleEvery is the 1-in-N sample of echoes that are opened and
// compared byte for byte; the rest are counted by frame kind only, so the
// generator does not become the bottleneck it is measuring.
const echoSampleEvery = 256

type dataEnv struct {
	site
	eps []*endpoint
}

// endpoint is one established session on its own socket.
type endpoint struct {
	cl   *transport.Client
	conn net.PacketConn
	sess *core.Session
}

func (e *dataEnv) close() {
	for _, ep := range e.eps {
		ep.conn.Close()
	}
	e.site.close()
}

// each runs fn for every endpoint at once, a goroutine each, and returns
// the first error.
func (e *dataEnv) each(fn func(*endpoint) error) error {
	errs := make([]error, len(e.eps))
	var wg sync.WaitGroup
	for i, ep := range e.eps {
		wg.Add(1)
		go func(i int, ep *endpoint) {
			defer wg.Done()
			errs[i] = fn(ep)
		}(i, ep)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runData drives two established sessions against an echoing server, one
// goroutine and socket each: for the first 60 % of the run both send
// bursts of sealed payloads through the batchio egress and drain the
// echoes through a batchio ring (the rate is the median of the echo
// counts per half second); for the rest one of them keeps pingWindow
// sealed frames outstanding (the latency). Two bursts in flight must fit the server
// socket's default receive buffer, which holds some 90 datagrams of
// 1200 bytes: beyond it the kernel drops and the echo is lost.
func runData(r *run, payloadBytes, burst int) (*result, error) {
	env, setups, err := buildTimed(r.setupSeconds, func() (*dataEnv, time.Duration, error) {
		d, err := newDeployment(1, 2)
		if err != nil {
			return nil, 0, err
		}
		srv, err := d.serve(0, transport.ServerConfig{BootEpoch: 1, EchoData: true})
		if err != nil {
			return nil, 0, err
		}
		e := &dataEnv{site: site{d, srv}}
		for i := range d.users {
			ep := &endpoint{}
			if ep.cl, ep.conn, err = d.client(i, srv, r.seed+int64(i)); err != nil {
				e.close()
				return nil, 0, err
			}
			e.eps = append(e.eps, ep)
			if ep.sess, err = attach(ep.cl); err != nil {
				e.close()
				return nil, 0, fmt.Errorf("attach: %w", err)
			}
		}
		return e, 0, nil
	})
	if err != nil {
		return nil, err
	}
	defer env.close()

	res := newResult()
	payload := make([]byte, payloadBytes)
	r.rng.Read(payload)
	total := time.Duration(r.seconds * float64(time.Second))
	burstTime := total * 6 / 10

	// Burst phase: echoes per bucket of about rateBucket, summed over both
	// generators.
	buckets := make([]int64, max(int(burstTime/rateBucket), 1))
	width := burstTime / time.Duration(len(buckets))
	var mu sync.Mutex
	begin := time.Now()
	err = env.each(func(ep *endpoint) error {
		sent, got, err := burstLoop(ep, env.srv.Addr(), payload, burst, begin, width, buckets, &mu, res)
		mu.Lock()
		res.Attempted += sent
		res.Failed += sent - got
		mu.Unlock()
		return err
	})
	if err != nil {
		return nil, err
	}
	rates := make([]float64, len(buckets))
	for i, n := range buckets {
		rates[i] = float64(n) / width.Seconds()
	}
	res.ops = res.Attempted

	// Round-trip phase: one client, pingWindow sealed frames outstanding.
	lat, failed, err := pingLoop(env.eps[0], payload, total-burstTime, res)
	if err != nil {
		return nil, err
	}
	res.Attempted += int64(len(lat)) + failed
	res.Failed += failed
	res.report(lat, median(rates), len(rates), setups)
	var clients []*transport.Client
	for _, ep := range env.eps {
		clients = append(clients, ep.cl)
	}
	collect(res, []*transport.Server{env.srv}, clients)
	res.keep = env
	return res, nil
}

// echoTimeout is how long a generator waits for an echo before it counts
// the frame as lost.
const echoTimeout = time.Second

// rateBucket is about the width of the echo-rate samples whose median is
// the throughput.
const rateBucket = 500 * time.Millisecond

// burstLoop sends bursts of sealed payloads and drains their echoes until
// the last bucket is over, adding each echo to the bucket of its arrival
// time. An echo still missing echoTimeout after its burst is lost, not
// retried.
func burstLoop(ep *endpoint, raddr net.Addr, payload []byte, burst int, begin time.Time, width time.Duration,
	buckets []int64, mu *sync.Mutex, res *result) (sent, got int64, err error) {
	phase := width * time.Duration(len(buckets))
	bc, _ := batchio.Upgrade(ep.conn)
	eg := batchio.NewEgress(bc, burst, time.Millisecond, batchio.NewPool(2048), nil)
	defer eg.Close()
	ring := batchio.NewRing(burst, batchio.NewPool(2048))
	defer ring.Close()
	var f core.DataFrame
	var pt []byte
	local := make([]int64, len(buckets))
	for time.Since(begin) < phase {
		for i := 0; i < burst; i++ {
			b := eg.Buffer()
			if b.B, err = transport.AppendFrameHeader(b.B, transport.KindSessionData, core.SealedDataLen(len(payload))); err == nil {
				b.B, err = ep.sess.AppendSealedData(b.B, payload)
			}
			if err != nil {
				b.Release()
				return sent, got, err
			}
			eg.QueueBuf(b, raddr)
		}
		eg.Flush()
		sent += int64(burst)
		if err := bc.SetReadDeadline(time.Now().Add(echoTimeout)); err != nil {
			return sent, got, err
		}
		for back := 0; back < burst; {
			ms := ring.Prepare()
			n, rerr := bc.ReadBatch(ms)
			if rerr != nil {
				break
			}
			slot := int(time.Since(begin) / width)
			for j := 0; j < n; j++ {
				kind, body, derr := transport.DecodeFrame(ms[j].Payload())
				if derr != nil || kind != transport.KindSessionData {
					continue
				}
				back++
				got++
				if slot < len(local) {
					local[slot]++
				}
				if got%echoSampleEvery == 0 {
					if pt, derr = openEcho(ep.sess, body, &f, pt[:0]); derr != nil || !bytes.Equal(pt, payload) {
						mu.Lock()
						res.violate("echo differs from the payload sent (%v)", derr)
						mu.Unlock()
					}
				}
			}
		}
	}
	mu.Lock()
	for i, n := range local {
		buckets[i] += n
	}
	mu.Unlock()
	return sent, got, nil
}

func openEcho(sess *core.Session, body []byte, f *core.DataFrame, dst []byte) ([]byte, error) {
	if err := core.UnmarshalDataFrameInto(body, f); err != nil {
		return nil, err
	}
	return sess.OpenDataInto(f, dst)
}

// pingWindow is how many frames the round-trip phase keeps outstanding. A
// single frame would be the purer round trip, but two goroutines handing
// one datagram back and forth is bistable on a two-core host (the median
// flips between 7 and 10 µs from run to run, a 25 % spread, and the 95th
// percentile with it); at eight the router's read loop never idles and the
// median repeats within 5 %. A reply held back for batch-mates or a flush
// deadline still shows: eight frames cannot fill a batch of 32.
const pingWindow = 8

// pingLoop keeps pingWindow sealed frames outstanding on one client and
// returns every frame's round trip time, and how many never came back.
func pingLoop(ep *endpoint, payload []byte, phase time.Duration, res *result) (lat latencies, failed int64, err error) {
	var f core.DataFrame
	var pt []byte
	buf := make([]byte, 65536)
	// Echoes come back in the order sent, so a ring of send times is
	// enough: out frames went out, back of them are accounted for.
	var sent [pingWindow]time.Time
	out, back := 0, 0
	for deadline := time.Now().Add(phase); time.Now().Before(deadline); back++ {
		for ; out-back < pingWindow; out++ {
			sent[out%pingWindow] = time.Now()
			if err := ep.cl.SendData(payload); err != nil {
				return nil, 0, err
			}
		}
		if err := ep.conn.SetReadDeadline(time.Now().Add(echoTimeout)); err != nil {
			return nil, 0, err
		}
		var body []byte
		for body == nil {
			got, _, err := ep.conn.ReadFrom(buf)
			if err != nil {
				break
			}
			if kind, b, err := transport.DecodeFrame(buf[:got]); err == nil && kind == transport.KindSessionData {
				body = b
			}
		}
		if body == nil {
			failed++
			continue
		}
		lat = append(lat, time.Since(sent[back%pingWindow]))
		if len(lat)%echoSampleEvery == 0 {
			var err error
			if pt, err = openEcho(ep.sess, body, &f, pt[:0]); err != nil || !bytes.Equal(pt, payload) {
				res.violate("echo differs from the payload sent (%v)", err)
			}
		}
	}
	return lat, failed, nil
}
