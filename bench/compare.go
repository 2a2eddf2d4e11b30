package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// spec is BENCHMARK.json, as far as the benchmark reads it.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory of `go run ./bench`, or its parent under `go test`.
func loadSpec() (*spec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s := &spec{}
		if err := json.Unmarshal(b, s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	}
	return nil, firstErr
}

// compareMain prints, per workload and end-to-end metric, both reports'
// values, their relative difference and the bound, and returns 1 when a
// pair differs by more than its bound: the benchmark's own noise check.
func compareMain(files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var reps [2]report
	for i, path := range files {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	status := 0
	fmt.Printf("%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", files[0], files[1], "diff", "bound")
	for _, w := range sp.Workloads {
		a, b := reps[0].Workloads[w.Name], reps[1].Workloads[w.Name]
		if a == nil || b == nil {
			fmt.Printf("%-14s missing from a report\n", w.Name)
			status = 1
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := a.EndToEnd.value(m.Name), b.EndToEnd.value(m.Name)
			diff := math.Abs(vb-va) / va
			verdict := ""
			if !(diff <= m.Bound) {
				verdict = "  OUT OF BOUND"
				status = 1
			}
			fmt.Printf("%-14s %-18s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", w.Name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
	}
	return status
}
