package batchio

import (
	"net"
	"sync"
	"testing"
	"time"
)

func TestPoolLeakCounter(t *testing.T) {
	p := NewPool(2048)
	var bufs []*Buf
	for i := 0; i < 10; i++ {
		bufs = append(bufs, p.Get())
	}
	if got := p.Outstanding(); got != 10 {
		t.Fatalf("Outstanding = %d, want 10", got)
	}
	for _, b := range bufs {
		if cap(b.B) < 2048 || len(b.B) != 0 {
			t.Fatalf("Get returned len=%d cap=%d", len(b.B), cap(b.B))
		}
		b.Release()
	}
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("Outstanding after release = %d, want 0", got)
	}
}

func TestPoolConcurrent(t *testing.T) {
	p := NewPool(512)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := p.Get()
				b.B = append(b.B, byte(i))
				b.Release()
			}
		}()
	}
	wg.Wait()
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d, want 0", got)
	}
}

// fakeConn records WriteBatch calls for egress tests.
type fakeConn struct {
	mu      sync.Mutex
	batches [][]string
}

func (f *fakeConn) ReadBatch(ms []Message) (int, error) { return 0, nil }
func (f *fakeConn) WriteBatch(ms []Message) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var b []string
	for i := range ms {
		b = append(b, string(ms[i].Buf[:ms[i].N]))
	}
	f.batches = append(f.batches, b)
	return len(ms), nil
}
func (f *fakeConn) LocalAddr() net.Addr               { return &net.UDPAddr{} }
func (f *fakeConn) SetReadDeadline(t time.Time) error { return nil }
func (f *fakeConn) Close() error                      { return nil }

func (f *fakeConn) snapshot() [][]string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([][]string, len(f.batches))
	copy(out, f.batches)
	return out
}

func TestEgressBatchFullFlush(t *testing.T) {
	fc := &fakeConn{}
	p := NewPool(256)
	var frames, bytesOut int
	eg := NewEgress(fc, 3, 0, p, func(f, b int) { frames += f; bytesOut += b })
	dst := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	for i := 0; i < 3; i++ {
		b := eg.Buffer()
		b.B = append(b.B, 'x', byte('0'+i))
		eg.QueueBuf(b, dst)
	}
	got := fc.snapshot()
	if len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("batches = %v, want one batch of 3", got)
	}
	if frames != 3 || bytesOut != 6 {
		t.Fatalf("onFlush saw frames=%d bytes=%d", frames, bytesOut)
	}
	if p.Outstanding() != 0 {
		t.Fatalf("pooled frames leaked: %d", p.Outstanding())
	}
	eg.Close()
}

func TestEgressFlushDeadline(t *testing.T) {
	fc := &fakeConn{}
	p := NewPool(256)
	eg := NewEgress(fc, 32, 2*time.Millisecond, p, nil)
	defer eg.Close()
	eg.Queue([]byte("lonely"), &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9})
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if len(fc.snapshot()) == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("flush deadline never fired; staged frame sat in the spooler")
}

func TestEgressSharedFramesNotPooled(t *testing.T) {
	fc := &fakeConn{}
	p := NewPool(256)
	eg := NewEgress(fc, 2, 0, p, nil)
	shared := []byte("cached-beacon-frame")
	dst := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	eg.Queue(shared, dst)
	eg.Queue(shared, dst)
	if p.Outstanding() != 0 {
		t.Fatalf("shared frames touched the pool: %d", p.Outstanding())
	}
	if string(shared) != "cached-beacon-frame" {
		t.Fatalf("shared frame mutated: %q", shared)
	}
	eg.Close()
}

func TestEgressCloseFlushes(t *testing.T) {
	fc := &fakeConn{}
	p := NewPool(256)
	eg := NewEgress(fc, 32, 0, p, nil)
	b := eg.Buffer()
	b.B = append(b.B, "tail"...)
	eg.QueueBuf(b, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9})
	eg.Close()
	got := fc.snapshot()
	if len(got) != 1 || got[0][0] != "tail" {
		t.Fatalf("Close did not flush: %v", got)
	}
	if p.Outstanding() != 0 {
		t.Fatalf("leak after close: %d", p.Outstanding())
	}
	// Queueing after Close must not leak the pooled buffer either.
	b2 := eg.Buffer()
	eg.QueueBuf(b2, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9})
	if p.Outstanding() != 0 {
		t.Fatalf("queue-after-close leaked: %d", p.Outstanding())
	}
}
