package main

import (
	"crypto/rand"
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/cert"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/sgs"
	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/transport"
	"github.com/peace-mesh/peace/internal/transport/batchio"
)

// stopwatch times one layer call at a time, from outside, for a fixed
// budget per row.
type stopwatch struct {
	budget time.Duration
	out    metrics
}

// minSamples is the floor under every row however slow the call.
const minSamples = 5

// row records the median time of one op call under name, which says the
// unit (_ns, _us or _ms). Each sample times reps consecutive
// calls (use more than one for calls too short to time alone); prep,
// when not nil, runs untimed before every sample. perCall divides a
// sample that does several units of work at once.
func (w *stopwatch) row(name string, reps int, perCall float64, prep func(), op func()) {
	var samples []float64
	for start := time.Now(); len(samples) < minSamples || time.Since(start) < w.budget; {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			op()
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(reps)/perCall)
	}
	sort.Float64s(samples)
	ns := quantile(samples, 0.5)
	for _, part := range strings.Split(name, "_") {
		if scale, ok := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[part]; ok {
			w.out.set(name, ns/scale, part, len(samples))
			return
		}
	}
	panic("bench: row " + name + " does not name its unit")
}

// must turns a layer call's error into a panic: the inputs are the
// benchmark's own, so a failure is a bug here or a broken layer, and
// measureLayers reports it as the run's error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func must1[T any](v T, err error) T {
	must(err)
	return v
}

// measureLayers times the public calls of every layer beneath the attach,
// resume and data paths, one call at a time and in process, so that a
// change to one layer shows in its own row before it shows end to end.
// Rows the attach ledger already measures are not repeated here.
func measureLayers(budget time.Duration, out metrics) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("layer timing: %v", r)
		}
	}()
	w := &stopwatch{budget: budget, out: out}
	d, err := newDeployment(1, 1)
	if err != nil {
		return err
	}
	pairingRows(w)
	signatureRows(w, d)
	handshakeRows(w, d)
	sessionRows(w, d)
	ticketRows(w, d)
	socketRows(w)
	puzzleRows(w, d)
	revocationRows(w, d)
	registryRows(w)
	return nil
}

func pairingRows(w *stopwatch) {
	k, g1, _ := bn256.RandomG1(rand.Reader)
	_, g2, _ := bn256.RandomG2(rand.Reader)
	gt := bn256.Pair(g1, g2)
	w.row("bn256.pair_us", 1, 1, nil, func() { bn256.Pair(g1, g2) })
	preps := []*bn256.PreparedG2{bn256.PrepareG2(g2), bn256.PrepareG2(new(bn256.G2).Base())}
	points := []*bn256.G1{g1, new(bn256.G1).Base()}
	w.row("bn256.miller_combined2_us", 1, 1, nil, func() { bn256.MillerCombined(preps, points) })
	w.row("bn256.g1_exp_us", 1, 1, nil, func() { new(bn256.G1).ScalarMult(g1, k) })
	w.row("bn256.g2_exp_us", 1, 1, nil, func() { new(bn256.G2).ScalarMult(g2, k) })
	w.row("bn256.gt_exp_cyclo_us", 1, 1, nil, func() { new(bn256.GT).ScalarMultCyclo(gt, k) })
	msg := []byte("peacemark hash-to-curve input")
	w.row("bn256.hash_g1_us", 1, 1, nil, func() { bn256.HashToG1(msg) })
	g1b, g2b := g1.Marshal(), g2.Marshal()
	w.row("bn256.g1_unmarshal_us", 8, 1, nil, func() { must1(new(bn256.G1).Unmarshal(g1b)) })
	w.row("bn256.g2_unmarshal_us", 8, 1, nil, func() { must1(new(bn256.G2).Unmarshal(g2b)) })
}

func signatureRows(w *stopwatch, d *deployment) {
	gpk := d.no.GroupPublicKey()
	key := d.users[0].Credentials()[0].Key
	msg := []byte("peacemark transcript")
	w.row("sgs.sign_us", 1, 1, nil, func() { must1(sgs.Sign(rand.Reader, gpk, key, msg)) })
	sig := must1(sgs.Sign(rand.Reader, gpk, key, msg))
	sigBytes := sig.Bytes()
	w.row("sgs.sig_unmarshal_us", 4, 1, nil, func() { must1(sgs.ParseSignature(sigBytes)) })

	verifier := sgs.NewVerifier(gpk)
	items := make([]sgs.BatchItem, 16)
	for i := range items {
		items[i] = sgs.BatchItem{Msg: msg, Sig: must1(sgs.Sign(rand.Reader, gpk, key, msg))}
	}
	w.row("sgs.batch_verify16_us_per_sig", 1, 16, nil, func() {
		for _, err := range verifier.BatchVerify(items) {
			must(err)
		}
	})
	// A fresh sweep state for the URL's 16 tokens, verifier tables
	// included: what a router pays when it first installs a list.
	w.row("sgs.sweep_update16_us", 1, 1, nil, func() {
		s := sgs.NewSweepState(gpk)
		s.Update(1, d.revoked)
		s.Verifier()
	})
}

func handshakeRows(w *stopwatch, d *deployment) {
	router, user := d.routers[0], d.users[0]
	w.row("core.router_beacon_us", 1, 1, nil, func() { must1(router.Beacon()) })
	beacon := must1(router.Beacon())
	now := time.Now()
	w.row("cert.check_us", 1, 1, nil, func() { must(cert.CheckCertificate(beacon.Cert, nil, d.no.Authority(), now)) })
	body := beacon.SignedBody()
	w.row("cert.verify_us", 1, 1, nil, func() { must(beacon.Cert.PublicKey.Verify(body, beacon.Signature)) })

	var batch []*core.AccessRequest
	w.row("core.router_handle_m2_batch16_us_per_req", 1, 16, func() {
		batch = batch[:0]
		for i := 0; i < 16; i++ {
			batch = append(batch, must1(user.HandleBeacon(beacon, benchGroup)))
		}
	}, func() {
		for _, res := range router.HandleAccessRequestBatch(batch) {
			must(res.Err)
		}
	})
}

// handshake runs M.1–M.3 in process and returns both ends' sessions with
// the messages that made them.
func handshake(d *deployment) (m2 *core.AccessRequest, m3 *core.AccessConfirm, client, server *core.Session) {
	beacon := must1(d.routers[0].Beacon())
	m2 = must1(d.users[0].HandleBeacon(beacon, benchGroup))
	m3, server, err := d.routers[0].HandleAccessRequest(m2)
	must(err)
	return m2, m3, must1(d.users[0].HandleAccessConfirm(m3)), server
}

func sessionRows(w *stopwatch, d *deployment) {
	_, _, client, server := handshake(d)
	const frames = 256
	for _, size := range []int{64, 1200} {
		payload := make([]byte, size)
		buf := make([]byte, 0, core.SealedDataLen(size))
		w.row(fmt.Sprintf("core.session_seal%d_ns", size), frames, 1, nil, func() {
			must1(client.AppendSealedData(buf[:0], payload))
		})
		// The receive side accepts a sequence number once, so every sample
		// opens a freshly sealed train.
		sealed := make([][]byte, frames)
		decoded := make([]core.DataFrame, frames)
		pt := make([]byte, 0, size)
		i := 0
		w.row(fmt.Sprintf("core.session_open%d_ns", size), frames, 1, func() {
			for j := range sealed {
				sealed[j] = must1(client.AppendSealedData(sealed[j][:0], payload))
				must(core.UnmarshalDataFrameInto(sealed[j], &decoded[j]))
			}
			i = 0
		}, func() {
			must1(server.OpenDataInto(&decoded[i], pt[:0]))
			i++
		})
	}

	payload := make([]byte, 64)
	buf := make([]byte, 0, core.SealedDataLen(len(payload)))
	w.out.set("core.session_seal_allocs", testing.AllocsPerRun(200, func() {
		must1(client.AppendSealedData(buf[:0], payload))
	}), "count", 200)
	var f core.DataFrame
	pt := make([]byte, 0, len(payload))
	var sealed []byte
	allocs := testing.AllocsPerRun(200, func() {
		sealed = must1(client.AppendSealedData(sealed[:0], payload))
		must(core.UnmarshalDataFrameInto(sealed, &f))
		must1(server.OpenDataInto(&f, pt[:0]))
	})
	// The open's allocations are those of seal+decode+open minus the seal's.
	w.out.set("core.session_open_allocs", allocs-w.out.value("core.session_seal_allocs"), "count", 200)

	frame := must1(transport.AppendFrameHeader(nil, transport.KindSessionData, core.SealedDataLen(len(payload))))
	frame = must1(client.AppendSealedData(frame, payload))
	w.row("transport.frame_decode_ns", 64, 1, nil, func() {
		_, body, err := transport.DecodeFrame(frame)
		must(err)
		must(core.UnmarshalDataFrameInto(body, &f))
	})

	var prev core.SessionID
	secret, cn, sn := make([]byte, core.ResumeSecretSize), make([]byte, 16), make([]byte, 16)
	w.row("core.resume_session_us", 4, 1, nil, func() { core.ResumeSession(prev, secret, cn, sn, "user", time.Now()) })
	dh, transcript := make([]byte, 64), make([]byte, 128)
	w.row("symcrypto.derive_session_keys_us", 4, 1, nil, func() { symcrypto.DeriveSessionKeys(dh, transcript) })
	var key symcrypto.Key
	w.row("symcrypto.mac_ns", 64, 1, nil, func() { symcrypto.MAC(key, 7, payload) })
}

func ticketRows(w *stopwatch, d *deployment) {
	m2, _, client, _ := handshake(d)
	ring := must1(symcrypto.NewTicketKeyRing(rand.Reader))
	ticket := &transport.Ticket{Prev: client.ID, Router: d.routers[0].ID(), Expiry: time.Now().Add(time.Hour), Escrow: m2.Marshal()}
	copy(ticket.Secret[:], client.ResumptionSecret())
	plain := ticket.Marshal()
	aad := []byte("peacemark")
	w.row("symcrypto.stek_seal_us", 8, 1, nil, func() { must1(ring.Seal(rand.Reader, plain, aad)) })
	blob := must1(ring.Seal(rand.Reader, plain, aad))
	w.row("symcrypto.stek_open_us", 8, 1, nil, func() { must1(ring.Open(blob, aad)) })
	sealed := must1(ticket.Seal(rand.Reader, ring))
	w.row("transport.ticket_open_us", 4, 1, nil, func() { must1(transport.OpenTicket(sealed, ring)) })

	req := &transport.ResumeRequest{Ticket: sealed, Timestamp: time.Now()}
	_, payload, err := transport.DecodeFrame(must1(transport.EncodeMessage(req)))
	must(err)
	var scratch transport.ResumeRequest
	w.row("transport.resume_req_decode_ns", 64, 1, nil, func() {
		must(transport.UnmarshalResumeRequestInto(payload, &scratch))
	})
}

// socketRows prices the batched socket calls on a loopback pair: 32
// datagrams of a sealed 64-byte frame's size per call, against one
// datagram per call.
func socketRows(w *stopwatch) {
	const batch = 32
	tx := must1(net.ListenPacket("udp", "127.0.0.1:0"))
	defer tx.Close()
	rx := must1(net.ListenPacket("udp", "127.0.0.1:0"))
	defer rx.Close()
	txc, _ := batchio.Upgrade(tx)
	rxc, _ := batchio.Upgrade(rx)
	frame := make([]byte, transport.HeaderSize+core.SealedDataLen(64))
	out := make([]batchio.Message, batch)
	for i := range out {
		out[i].Set(frame, rx.LocalAddr())
	}
	in := make([]batchio.Message, batch)
	for i := range in {
		in[i].Buf = make([]byte, 2048)
	}
	empty := func() { drainAll(rxc, in) }
	w.row("batchio.write_batch32_ns_per_dgram", 1, batch, empty, func() { must1(txc.WriteBatch(out)) })
	single := batchio.Single(tx)
	w.row("batchio.write_single_ns", batch, 1, empty, func() { must1(single.WriteBatch(out[:1])) })
	// Loopback delivers on send, so the whole batch is queued by the time
	// the read is timed.
	w.row("batchio.read_batch32_ns_per_dgram", 1, batch, func() {
		empty()
		must1(txc.WriteBatch(out))
		must(rxc.SetReadDeadline(time.Now().Add(time.Second)))
	}, func() {
		for got := 0; got < batch; {
			got += must1(rxc.ReadBatch(in))
		}
	})
	gso := 0.0
	if gsoSupported() {
		gso = 1
	}
	w.out.set("batchio.gso_engaged", gso, "count", 0)
}

// drainAll empties the receive queue.
func drainAll(rxc batchio.Conn, in []batchio.Message) {
	for {
		must(rxc.SetReadDeadline(time.Now().Add(time.Millisecond)))
		if _, err := rxc.ReadBatch(in); err != nil {
			return
		}
	}
}

func puzzleRows(w *stopwatch, d *deployment) {
	router := d.routers[0]
	router.SetDoSDefense(true)
	defer router.SetDoSDefense(false)
	p := router.CurrentPuzzle()
	if p == nil {
		panic("router demands no puzzle with DoS defense on")
	}
	sol := p.Solve()
	maxAge := time.Minute
	w.row("puzzle.hash_ns", 64, 1, nil, func() { p.SolutionDigest(sol) })
	w.row("puzzle.verify_ns", 64, 1, nil, func() { must(p.Verify(sol, time.Now(), maxAge)) })
	w.row("core.verify_puzzle_solution_ns", 64, 1, nil, func() {
		must(router.VerifyPuzzleSolution(p.IssuedAt, p.Difficulty, sol))
	})
}

func revocationRows(w *stopwatch, d *deployment) {
	router := d.routers[0]
	before, ok := router.RevocationSnapshot(revocation.ListURL)
	if !ok {
		panic("router has no URL snapshot")
	}
	// One more revocation gives the router a delta from the 16-token epoch.
	d.no.RevokeUserKey(must1(d.no.TokenOf(decoyGroup, 0)))
	crl, url, err := d.no.RevocationBundles()
	must(err)
	must(router.UpdateRevocations(crl, url))
	delta, ok := router.RevocationDelta(revocation.ListURL, before.Epoch)
	if !ok {
		panic("router has no delta from the previous URL epoch")
	}
	var store *revocation.Store
	fresh := func() { store = must1(revocation.NewStore(revocation.ListURL, d.no.Authority())) }
	w.row("revocation.install_snapshot16_us", 1, 1, fresh, func() { must(store.Install(before, time.Now())) })
	w.row("revocation.apply_delta_us", 1, 1, func() {
		fresh()
		must(store.Install(before, time.Now()))
	}, func() { must(store.ApplyDelta(delta, time.Now())) })
}

func registryRows(w *stopwatch) {
	// The transport's own instrument set: what one scrape of a router copies.
	reg := transport.NewStats(nil).Registry()
	c := reg.Counter("peacemark_counter", "benchmark probe")
	h := reg.Histogram("peacemark_histogram", "benchmark probe")
	w.row("metrics.counter_add_ns", 256, 1, nil, func() { c.Add(1) })
	w.row("metrics.histogram_observe_ns", 256, 1, nil, func() { h.Observe(37 * time.Microsecond) })
	w.row("metrics.snapshot_us", 4, 1, nil, func() { reg.Snapshot() })
}
