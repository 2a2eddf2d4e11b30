package batchio

// Ring is a read loop's batch of pooled receive slots. Prepare returns the
// slot array to pass to ReadBatch; each filled slot's bytes belong to the
// ring and are valid only until the next Prepare, so a handler that keeps
// a datagram past its batch copies it.
type Ring struct {
	bufs []*Buf
	msgs []Message
}

// NewRing checks k receive slots out of pool.
func NewRing(k int, pool *Pool) *Ring {
	if k < 1 {
		k = 1
	}
	r := &Ring{
		bufs: make([]*Buf, k),
		msgs: make([]Message, k),
	}
	for i := range r.bufs {
		r.bufs[i] = pool.Get()
		r.msgs[i].Buf = r.bufs[i].B[:pool.BufSize()]
	}
	return r
}

// Prepare resets every slot for the next ReadBatch and returns the slot
// array.
func (r *Ring) Prepare() []Message {
	for i := range r.msgs {
		r.msgs[i].N = 0
		r.msgs[i].Addr = nil
	}
	return r.msgs
}

// Close returns the ring's buffers to the pool.
func (r *Ring) Close() {
	for i, b := range r.bufs {
		if b != nil {
			b.Release()
			r.bufs[i] = nil
		}
	}
}
