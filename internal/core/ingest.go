package core

import (
	"runtime"
	"sync"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
)

// ingestJob pairs a submitted request with its reply channel and the time
// it entered the queue.
type ingestJob struct {
	m      *AccessRequest
	reply  chan AccessResult
	queued time.Time
}

// IngestQueue feeds M.2 access requests to a router's M.2 pipeline.
// Submissions beyond the queue's capacity are rejected immediately with
// ErrQueueFull — bounded backpressure, in the spirit of the paper's DoS
// discussion, instead of unbounded buffering. GOMAXPROCS drainer goroutines
// serve the queue, and each is a whole pipeline: it takes a group of waiting
// requests and carries it through precheck, verification, revocation scan
// and session establishment (MeshRouter.handleGroup) before it takes the
// next, so no stage waits for another group to reach it and no core idles
// while one request's serial work runs.
//
// A group is what one lane pass of the verifier holds, bn256.Lanes
// signatures, when that many are waiting for every drainer; a shorter queue
// is shared, each drainer taking ⌈waiting/GOMAXPROCS⌉, not hoarded by the
// first to wake. A request that arrives alone on an idle router is a group of
// one and runs the scalar verifier with the scan on all its workers.
type IngestQueue struct {
	router *MeshRouter
	jobs   chan ingestJob

	mu       sync.Mutex
	closed   bool
	drainers sync.WaitGroup
}

// NewIngestQueue starts the drainers for router. capacity bounds the number
// of requests waiting to be taken (minimum 1).
func NewIngestQueue(router *MeshRouter, capacity int) *IngestQueue {
	q := newIngestQueue(router, capacity)
	// The depth gauge lives in the router's registry and re-binds to the
	// newest queue (a restarted transport builds a fresh one).
	router.Metrics().GaugeFunc("router_ingest_queue_depth",
		"access requests waiting for a pipeline to take them", func() int64 {
			return int64(q.Depth())
		})
	q.start()
	return q
}

func newIngestQueue(router *MeshRouter, capacity int) *IngestQueue {
	return &IngestQueue{router: router, jobs: make(chan ingestJob, max(1, capacity))}
}

// start launches the drainers.
func (q *IngestQueue) start() {
	procs := runtime.GOMAXPROCS(0)
	q.drainers.Add(procs)
	for i := 0; i < procs; i++ {
		go q.drain(procs)
	}
}

// Depth returns how many submitted requests are waiting to be drained.
func (q *IngestQueue) Depth() int { return len(q.jobs) }

// Submit enqueues an access request. It never blocks: a full queue returns
// ErrQueueFull and a closed queue ErrQueueClosed. On success the result
// arrives exactly once on the returned channel.
func (q *IngestQueue) Submit(m *AccessRequest) (<-chan AccessResult, error) {
	job := ingestJob{m: m, reply: make(chan AccessResult, 1), queued: q.router.cfg.Clock.Now()}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrQueueClosed
	}
	select {
	case q.jobs <- job:
		return job.reply, nil
	default:
		return nil, ErrQueueFull
	}
}

// Close stops the drainers after the already-accepted requests have been
// answered. It is idempotent and safe to call concurrently with Submit.
func (q *IngestQueue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.jobs)
	}
	q.mu.Unlock()
	q.drainers.Wait()
}

// drain is one pipeline: it takes its share of the waiting requests, runs
// the group through the router and answers it, until the queue closes and
// empties. procs is the number of drainers sharing the queue.
func (q *IngestQueue) drain(procs int) {
	defer q.drainers.Done()
	r := q.router
	group := make([]ingestJob, 0, bn256.Lanes)
	for job := range q.jobs {
		group = append(group[:0], job)
		share := min(bn256.Lanes, (1+len(q.jobs)+procs-1)/procs)
	fill:
		for len(group) < share {
			select {
			case extra, open := <-q.jobs:
				if !open {
					break fill
				}
				group = append(group, extra)
			default:
				break fill
			}
		}

		now := r.cfg.Clock.Now()
		ms := make([]*AccessRequest, len(group))
		for i, j := range group {
			r.stages.ingestWait.Observe(now.Sub(j.queued))
			ms[i] = j.m
		}
		out := make([]AccessResult, len(group))
		r.handleGroup(ms, out)
		for i, j := range group {
			j.reply <- out[i]
		}
	}
}
