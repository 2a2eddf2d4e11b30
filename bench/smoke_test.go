package main

import (
	"math"
	"regexp"
	"sort"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func names(ms []specMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func keys(ms ...metrics) []string {
	var out []string
	for _, m := range ms {
		for k := range m {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// minus returns the names in a that are not in b.
func minus(a, b []string) []string {
	in := map[string]bool{}
	for _, n := range b {
		in[n] = true
	}
	var out []string
	for _, n := range a {
		if !in[n] {
			out = append(out, n)
		}
	}
	return out
}

// differences are the rows computed by subtraction, which noise can take
// below zero at smoke scale.
var differences = map[string]bool{
	"bench.trace_overhead_frac":    true,
	"backbone.handoff_extra_us":    true,
	"transport.attach_residual_us": true,
	"transport.resume_residual_us": true,
}

// checkMetrics holds every emitted metric to the spec's name set and unit,
// and to being a finite and (differences apart) non-negative number.
func checkMetrics(t *testing.T, where string, want []specMetric, positive bool, got ...metrics) {
	t.Helper()
	if g, w := keys(got...), names(want); len(minus(g, w))+len(minus(w, g)) != 0 {
		t.Errorf("%s: emitted but not in BENCHMARK.json: %v; in BENCHMARK.json but not emitted: %v", where, minus(g, w), minus(w, g))
	}
	for _, m := range want {
		for _, set := range got {
			v, ok := set[m.Name]
			if !ok {
				continue
			}
			if !metricName.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", where, m.Name)
			}
			if v.Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", where, m.Name, v.Unit, m.Unit)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (v.Value < 0 && !differences[m.Name]) || (positive && v.Value == 0) {
				t.Errorf("%s: %s = %v", where, m.Name, v.Value)
			}
		}
	}
}

// TestSmoke runs every workload and the traced pass at a fraction of a
// second each and checks that exactly the workloads and metrics of
// BENCHMARK.json come out, with no failed operation and no
// correctness-gate violation.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if sp.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", sp.RunSeconds, defaultSeconds)
	}
	var specWorkloads, ours []string
	for _, w := range sp.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if len(minus(ours, specWorkloads))+len(minus(specWorkloads, ours)) != 0 {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", ours, specWorkloads)
	}

	small := scale{seconds: 0.5, chunk: 16, roamEpochs: 2, roamOps: 200}
	traced, err := tracePass(workloads, 1, 0.5, small, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range traced.ledgers {
		if l.TracedP50 <= 0 || len(l.Rows) == 0 {
			t.Errorf("ledger %s is empty", l.Operation)
		}
	}
	for _, w := range workloads {
		res := traced.counts[w.name]
		for _, v := range res.Violations {
			t.Errorf("%s: correctness gate: %s", w.name, v)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		checkMetrics(t, w.name, sp.EndToEnd, true, res.EndToEnd)
		checkMetrics(t, w.name+" (traced)", sp.PerLayer, false, traced.layers, res.Layer)
	}
}
