package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. The benchmark records
// spans from its own files, around its calls into each layer; the server
// is a black box on the wire. Replay marks a span that re-runs, in
// process and after the fact, work the black box did for the same
// operation: it lies outside its parent's interval but is charged to it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

// tracer keeps spans in memory; write puts them out when the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int, replay bool) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Replay: replay,
		Start: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0).Nanoseconds() }

// in times fn as a child span of parent.
func (t *tracer) in(name string, parent, op int, replay bool, fn func() error) error {
	id := t.begin(name, parent, op, replay)
	err := fn()
	t.end(id)
	return err
}

// micros returns, per span name, every span's self time and full
// duration in µs. Self time is the duration minus what the child spans
// cover.
func (t *tracer) micros() (self, total map[string][]float64) {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self, total = map[string][]float64{}, map[string][]float64{}
	for _, s := range t.spans {
		total[s.Name] = append(total[s.Name], float64(s.End-s.Start)/1e3)
		self[s.Name] = append(self[s.Name], float64(s.End-s.Start-children[s.ID])/1e3)
	}
	return self, total
}

// write puts the spans out as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledgerRow is one line of a cost ledger: a layer's median self time per
// operation and its share of the operation's traced median.
type ledgerRow struct {
	Name  string  `json:"name"`
	Us    float64 `json:"us"`
	Share float64 `json:"share"`
}

// ledger is the budget table of one operation: the named rows, and the
// residual that makes them sum to the traced median by construction.
type ledger struct {
	Operation   string      `json:"operation"`
	TracedP50   float64     `json:"traced_p50_us"`
	UntracedP50 float64     `json:"untraced_p50_us"`
	Rows        []ledgerRow `json:"rows"`
	Residual    ledgerRow   `json:"residual"`
}

// newLedger sums rows against the traced median. Rows keep the order given.
func newLedger(op string, traced, untraced float64, residualName string, rows []ledgerRow) *ledger {
	l := &ledger{Operation: op, TracedP50: traced, UntracedP50: untraced}
	named := 0.0
	for _, r := range rows {
		r.Share = r.Us / traced
		named += r.Us
		l.Rows = append(l.Rows, r)
	}
	l.Residual = ledgerRow{Name: residualName, Us: traced - named, Share: (traced - named) / traced}
	return l
}

// namedShare is the part of the traced median the named rows cover.
func (l *ledger) namedShare() float64 { return 1 - l.Residual.Share }
