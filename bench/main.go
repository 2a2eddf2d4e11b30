// Command bench is peacemark, the repository's benchmark: end-to-end
// latency and throughput of the PEACE stack on six workloads, measured
// from outside through the layers' public calls, plus a traced pass that
// prices every layer and prints the attach cost ledger. See README.md.
//
//	go run ./bench -workload attach_cold -seed 1 -seconds 15 -trace 0
//	go run ./bench -out bench-run.json
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print the driver's result line (default: all, full report)")
		seed    = flag.Int64("seed", 1, "seed of everything the generator chooses: payload bytes, send order, retransmit jitter")
		seconds = flag.Float64("seconds", defaultSeconds, "measuring time per workload")
		trace   = flag.Int("trace", -1, "0: end-to-end pass only, 1: traced pass only (per-layer metrics), -1: both")
		out     = flag.String("out", "", "write the report as JSON to this file, and trace-<workload>.jsonl next to it")
		runs    = flag.Int("runs", 1, "end-to-end runs per workload, on consecutive seeds; the report holds each metric's median")
		compare = flag.Bool("compare", false, "compare two -out files (arguments) against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(flag.Args()))
	}
	if flag.NArg() > 0 || *seconds <= 0 || *trace < -1 || *trace > 1 || *runs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(benchMain(*name, *seed, *seconds, *trace, *runs, *out))
}

// report is what -out writes.
type report struct {
	Provenance provenance         `json:"provenance"`
	Workloads  map[string]*result `json:"workloads"`
	// Layers are the per-layer timings and the ledgers' own rows, common
	// to all workloads; each workload's counts sit in its result.
	Layers  metrics   `json:"per_layer,omitempty"`
	Ledgers []*ledger `json:"ledgers,omitempty"`
}

// provenance says what was measured, on what.
type provenance struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	// Network is always the host's loopback: no link rate, no wire latency.
	Network   string `json:"network"`
	BatchedIO bool   `json:"batched_io"`
	GSO       bool   `json:"gso"`
}

func newProvenance(seed int64, seconds float64) provenance {
	p := provenance{
		Seed: seed, Seconds: seconds, Commit: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: kernelRelease(), Network: "loopback", GSO: gsoSupported(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	return p
}

func benchMain(name string, seed int64, seconds float64, trace, runs int, out string) int {
	selected := workloads
	if name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", name)
			return 2
		}
	}
	rep := &report{Provenance: newProvenance(seed, seconds), Workloads: map[string]*result{}}
	fmt.Printf("peacemark: seed %d, %g s per workload, %s, %d cpus (GOMAXPROCS %d), %s, commit %s\n",
		seed, seconds, rep.Provenance.GoVersion, rep.Provenance.NumCPU, rep.Provenance.GOMAXPROCS,
		rep.Provenance.Kernel, rep.Provenance.Commit)
	fmt.Println("all traffic crosses the host loopback: no link-rate or wire-latency claim")

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The traced pass goes first: its timings want a process that has not
	// yet carried the workloads' heaps.
	if trace != 0 {
		tr := newTracer()
		// In the full report the workloads' slices share the time of one run.
		traced, err := tracePass(selected, seed, seconds, traceScale(seconds/float64(len(selected))), tr)
		if err != nil {
			return fail(err)
		}
		rep.Layers, rep.Ledgers, rep.Workloads = traced.layers, traced.ledgers, traced.counts
		for _, l := range rep.Ledgers {
			printLedger(l)
		}
		printMetrics("layers", rep.Layers)
		for _, w := range selected {
			printMetrics(w.name+" counts", rep.Workloads[w.name].Layer)
		}
		rep.Provenance.BatchedIO = rep.Workloads[selected[0].name].Layer.value("transport.batched_io") == 1
		if out != "" {
			// The spans are the stepwise attaches of the attach_cold ledger.
			if err := tr.write(filepath.Join(filepath.Dir(out), "trace-attach_cold.jsonl")); err != nil {
				return fail(err)
			}
		}
	}
	if trace != 1 {
		for _, w := range selected {
			var all []*result
			for i := 0; i < runs; i++ {
				runtime.GC()
				res, err := w.run(newRun(fullScale(seconds), seed+int64(i)))
				if err != nil {
					return fail(fmt.Errorf("%s: %w", w.name, err))
				}
				res.keep = nil
				all = append(all, res)
			}
			res := mergeRuns(all)
			if counts := rep.Workloads[w.name]; counts != nil {
				// The counts are the traced slice's, as in the driver's traced run.
				res.Layer = counts.Layer
				res.Violations = append(res.Violations, counts.Violations...)
			}
			rep.Workloads[w.name] = res
			printMetrics(w.name, res.EndToEnd)
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}

	correct := true
	for _, w := range selected {
		for _, v := range rep.Workloads[w.name].Violations {
			correct = false
			fmt.Fprintf(os.Stderr, "bench: %s: correctness gate: %s\n", w.name, v)
		}
	}
	if name != "" {
		printDriverLine(rep, name, trace, correct)
	}
	if !correct {
		return 1
	}
	return 0
}

// mergeRuns folds a set of runs of one workload into one result: counts
// add up, and every end-to-end metric is the median of the runs' values.
func mergeRuns(all []*result) *result {
	if len(all) == 1 {
		return all[0]
	}
	merged := newResult()
	for name, first := range all[0].EndToEnd {
		var vals []float64
		for _, res := range all {
			vals = append(vals, res.EndToEnd.value(name))
		}
		merged.EndToEnd.set(name, median(vals), first.Unit, len(vals))
	}
	for _, res := range all {
		merged.Attempted += res.Attempted
		merged.Failed += res.Failed
		merged.Violations = append(merged.Violations, res.Violations...)
		merged.Runs = append(merged.Runs, res.EndToEnd)
	}
	return merged
}

// traced is what the traced pass yields: the layer timings and the
// ledgers' rows, common to all workloads, and each workload's counts.
type traced struct {
	layers  metrics
	ledgers []*ledger
	counts  map[string]*result
}

// tracePass times the layers, builds the attach ledger, runs a slice of
// each selected workload for its counts, and builds the roam ledger. The
// order matters: a workload's slice is measured against a heap that holds
// nothing from earlier steps, and the roam ledger's handoffs leave
// grace-window timers behind that pin their sessions for ten seconds. The
// time is split so that the pass with one workload takes about as long as
// an end-to-end run.
func tracePass(selected []workload, seed int64, seconds float64, slice scale, tr *tracer) (*traced, error) {
	t := &traced{layers: metrics{}, counts: map[string]*result{}}
	// Some fifty timed rows share a quarter of the time.
	rowBudget := time.Duration(seconds / 4 / 50 * float64(time.Second))
	if err := measureLayers(rowBudget, t.layers); err != nil {
		return nil, err
	}
	attach, err := attachLedger(seed, time.Duration(seconds/4*float64(time.Second)), tr, t.layers)
	if err != nil {
		return nil, err
	}
	for _, w := range selected {
		if t.counts[w.name], err = traceWorkload(w, newRun(slice, seed)); err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w.name, err)
		}
	}
	roam, err := roamLedger(seed, max(int(seconds*100), 50), t.layers)
	if err != nil {
		return nil, err
	}
	t.ledgers = []*ledger{attach, roam}
	return t, nil
}

// traceWorkload runs a short slice of one workload for its counts and the
// process's own costs per operation.
func traceWorkload(w workload, r *run) (*result, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuSeconds()
	res, err := w.run(r)
	if err != nil {
		return nil, err
	}
	cpu = cpuSeconds() - cpu
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.keep = nil

	perOp := func(total float64) float64 { return total / float64(max(res.ops, 1)) }
	set := func(name, op string, v float64, unit string) {
		if w.op != op {
			v = 0
		}
		res.Layer.set(name, v, unit, 0)
	}
	heap := math.Max(float64(after.HeapAlloc)-float64(before.HeapAlloc), 0)
	set("proc.cpu_s_per_1k_attach", "attach", perOp(cpu)*1e3, "s")
	set("proc.cpu_s_per_1m_echo", "echo", perOp(cpu)*1e6, "s")
	set("proc.heap_bytes_per_attach", "attach", perOp(heap), "B")
	set("proc.heap_bytes_per_resume", "resume", perOp(heap), "B")
	set("proc.mallocs_per_echo", "echo", perOp(float64(after.Mallocs-before.Mallocs)), "count")
	res.Layer.set("proc.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, "ms", 0)
	res.Layer.set("proc.peak_rss_mb", peakRSSMB(), "MB", 0)
	return res, nil
}

func printMetrics(title string, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s:\n", title)
	for _, name := range names {
		v := m[name]
		fmt.Printf("  %-44s %14.4f %-5s", name, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Printf(" n=%d", v.Samples)
		}
		fmt.Println()
	}
}

func printLedger(l *ledger) {
	fmt.Printf("ledger %s: traced p50 %.1f us, untraced p50 %.1f us\n", l.Operation, l.TracedP50, l.UntracedP50)
	for _, r := range append(append([]ledgerRow(nil), l.Rows...), l.Residual) {
		fmt.Printf("  %-44s %12.1f us %6.1f %%\n", r.Name, r.Us, 100*r.Share)
	}
}

// printDriverLine prints the one JSON object the benchmark driver reads
// from the last line of standard output.
func printDriverLine(rep *report, name string, trace int, correct bool) {
	res := rep.Workloads[name]
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	add := func(m metrics) {
		for k, v := range m {
			vals[k] = value{v.Value, v.Unit}
		}
	}
	if trace == 1 {
		add(rep.Layers)
		add(res.Layer)
	} else {
		add(res.EndToEnd)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(res.Attempted, 1),
		"failed":    res.Failed,
		"metrics":   vals,
	})
	fmt.Println(string(line))
}
