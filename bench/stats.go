package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations stand behind Value (0 for counts
	// and derived figures).
	Samples int `json:"samples,omitempty"`
}

// metrics maps a metric name to its value; names are the ones
// BENCHMARK.json lists.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, samples int) {
	m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func (m metrics) value(name string) float64 { return m[name].Value }

// quantile returns the q-quantile (nearest rank) of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latencies collects per-operation durations of one workload.
type latencies []time.Duration

func (l latencies) micros() []float64 {
	out := make([]float64, len(l))
	for i, d := range l {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	sort.Float64s(out)
	return out
}

// total is the summed duration, the denominator of a closed-loop rate.
func (l latencies) total() time.Duration {
	var t time.Duration
	for _, d := range l {
		t += d
	}
	return t
}
