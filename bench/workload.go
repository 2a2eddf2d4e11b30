package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/peace-mesh/peace/internal/transport"
)

// scale sizes one workload run. The driver's --seconds sets seconds; the
// rest is fixed except in the traced pass and the smoke test, which shrink
// everything.
type scale struct {
	// seconds is the workload's measuring time.
	seconds float64
	// setupSeconds is how long the environment is built over and over (at
	// least once), so that setup_s is a median and not one draw.
	setupSeconds float64
	// chunk is the number of pre-signed M.2s per attach_burst chunk.
	chunk int
	// roamEpochs and roamOps size a roam workload: so many epochs of so
	// many resumes, a fresh metro for each epoch. A roam workload is
	// count-bounded, not time-bounded, because the routers keep the session
	// and its audit transcript for every resume by design, and for ten
	// seconds after a handoff at both routers: the heap, and with it the
	// garbage collector's share of the run, grows with every operation.
	roamEpochs, roamOps int
}

// roamOpsPerSecond converts the measuring time into a roam workload's
// operation count: about a fifth of what two clients can do in that time,
// which keeps the live heap of roam_handoff near 100 MB.
const roamOpsPerSecond = 2000

func fullScale(seconds float64) scale {
	const perEpoch = 6000
	return scale{seconds: seconds, setupSeconds: 1, chunk: 64,
		roamEpochs: max(int(seconds*roamOpsPerSecond/perEpoch), 3), roamOps: perEpoch}
}

// traceScale sizes a workload's slice of the traced pass: a third of a
// run, and for a roam workload a single epoch, so that what the heap holds
// afterwards is what that epoch's resumes left.
func traceScale(seconds float64) scale {
	return scale{seconds: seconds / 3, chunk: 32,
		roamEpochs: 1, roamOps: max(int(seconds/3*roamOpsPerSecond), 100)}
}

// run is what a workload gets: its sizing and the generator's seeded
// choices (payload bytes, send order, retransmit jitter).
type run struct {
	scale
	seed int64
	rng  *rand.Rand
}

func newRun(s scale, seed int64) *run {
	return &run{scale: s, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

func (r *run) deadline() time.Time {
	return time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
}

// result is one workload's outcome.
type result struct {
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	Violations []string `json:"violations,omitempty"`
	// EndToEnd holds the metrics BENCHMARK.json lists under end_to_end;
	// Layer the per-workload counts read from the servers', clients' and
	// routers' registries once the run is over.
	EndToEnd metrics `json:"end_to_end"`
	Layer    metrics `json:"per_layer,omitempty"`
	// Runs holds each run's end-to-end metrics when the result is the
	// median of several (-runs).
	Runs []metrics `json:"runs,omitempty"`

	// ops is the number of primary operations behind the proc.* per-op
	// figures; keep pins the environment until the heap has been read; io
	// accumulates the servers' socket counters behind the batch-fill rows.
	ops  int64
	keep any
	io   struct{ readDatagrams, readBatches, writeDatagrams, writeBatches int64 }
}

func newResult() *result {
	// Only attach_burst signs ahead of the clock; the row reads zero elsewhere.
	return &result{EndToEnd: metrics{}, Layer: metrics{"bench.presign_s": {Unit: "s"}}}
}

func (r *result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// report fills the four end-to-end metrics every workload has.
func (r *result) report(lat latencies, perSecond float64, rateSamples int, setups []float64) {
	us := lat.micros()
	r.EndToEnd.set("latency_p50_us", quantile(us, 0.5), "us", len(us))
	r.EndToEnd.set("latency_p95_us", quantile(us, 0.95), "us", len(us))
	r.EndToEnd.set("throughput_per_s", perSecond, "1/s", rateSamples)
	r.EndToEnd.set("setup_s", median(setups), "s", len(setups))
}

type workload struct {
	name string
	// op is the kind of operation the workload repeats: "attach",
	// "resume" or "echo". The proc.* per-operation rows are named after it.
	op  string
	run func(*run) (*result, error)
}

// workloads lists every workload by the name BENCHMARK.json gives it, in
// the order of the full report: roam_handoff last, because its routers
// keep every handed-off session for a ten-second grace window and the
// heap it leaves behind would weigh on whatever ran next.
var workloads = []workload{
	{"attach_cold", "attach", runAttachCold},
	{"attach_burst", "attach", runAttachBurst},
	{"data_echo", "echo", func(r *run) (*result, error) { return runData(r, 64, 64) }},
	{"data_bulk", "echo", func(r *run) (*result, error) { return runData(r, 1200, 16) }},
	{"roam_resume", "resume", func(r *run) (*result, error) { return runRoam(r, false) }},
	{"roam_handoff", "resume", func(r *run) (*result, error) { return runRoam(r, true) }},
}

// site is a single-router deployment being served.
type site struct {
	d   *deployment
	srv *transport.Server
}

func (s *site) close() { s.srv.Close() }

// buildTimed builds the environment until seconds have gone by, at least
// once, closes all but the last, and returns it with every build's set-up
// time in seconds: the time until the environment could serve its first
// timed operation, less whatever the build reports as the generator's own
// preparation.
func buildTimed[T interface{ close() }](seconds float64, build func() (env T, generator time.Duration, err error)) (T, []float64, error) {
	var env T
	var times []float64
	for begin := time.Now(); len(times) == 0 || time.Since(begin).Seconds() < seconds; {
		if len(times) > 0 {
			env.close()
		}
		start := time.Now()
		var generator time.Duration
		var err error
		if env, generator, err = build(); err != nil {
			return env, nil, err
		}
		times = append(times, (time.Since(start) - generator).Seconds())
	}
	return env, times, nil
}
