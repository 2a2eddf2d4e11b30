package transport

import (
	"context"
	"errors"
	"time"

	"github.com/peace-mesh/peace/internal/core"
)

// MaintainConfig tunes the self-healing session loop: encrypted keepalive
// cadence, dead-peer thresholds, and the jittered backoff between
// re-attach attempts.
type MaintainConfig struct {
	// KeepaliveInterval is the gap between ping rounds. Default 1s.
	KeepaliveInterval time.Duration
	// PingTimeout bounds one ping round's wait for a valid pong. Default
	// half the keepalive interval.
	PingTimeout time.Duration
	// MaxMissed is how many consecutive unanswered rounds declare the peer
	// dead. Default 3.
	MaxMissed int
	// ReattachMin / ReattachMax bound the jittered exponential backoff
	// between re-attach attempts. Defaults 200ms / 5s.
	ReattachMin time.Duration
	ReattachMax time.Duration
	// AttachTimeout bounds one full AKA run. Default 30s.
	AttachTimeout time.Duration
	// Logf, when set, receives diagnostic messages.
	Logf func(format string, args ...any)
}

func (c MaintainConfig) withDefaults() MaintainConfig {
	if c.KeepaliveInterval <= 0 {
		c.KeepaliveInterval = time.Second
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = c.KeepaliveInterval / 2
	}
	if c.MaxMissed < 1 {
		c.MaxMissed = 3
	}
	if c.ReattachMin <= 0 {
		c.ReattachMin = 200 * time.Millisecond
	}
	if c.ReattachMax <= 0 {
		c.ReattachMax = 5 * time.Second
	}
	if c.AttachTimeout <= 0 {
		c.AttachTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Maintain runs the self-healing session loop until ctx is cancelled:
// attach (with jittered exponential backoff across failures), then send
// encrypted keepalive pings every KeepaliveInterval. MaxMissed unanswered
// rounds declare the peer dead; an unknown-session reject is confirmed
// against the signed boot epoch of a freshly solicited beacon. Either way
// the orphaned session is dropped and the loop re-attaches automatically.
// Maintain always returns ctx's error.
func (c *Client) Maintain(ctx context.Context, cfg MaintainConfig) error {
	// Cancelling ctx wakes the read the keeper is blocked in.
	defer context.AfterFunc(ctx, func() { _ = c.conn.SetReadDeadline(time.Unix(1, 0)) })()
	k := newKeeper(c, cfg)
	for {
		err := c.drive(ctx, k)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		// A socket error cut the run short: back off, then go on.
		k.cfg.Logf("transport: %v", err)
		k.first = k.pause
	}
}

// keeper is Maintain's loop as a phase that never ends; its waits — the
// keepalive interval, the re-attach backoff — are deadlines.
type keeper struct {
	chain
	c       *Client
	cfg     MaintainConfig
	backoff time.Duration // the next re-attach backoff
	missed  int           // consecutive unanswered rounds

	// The round in flight: the ping's nonce and send time, its pong's
	// epoch, and the reused seal buffer, open scratch and frame.
	nonce  uint64
	sentAt time.Time
	epoch  uint64
	buf    []byte
	pt     []byte
	frame  core.DataFrame
}

func newKeeper(c *Client, cfg MaintainConfig) *keeper {
	k := &keeper{c: c, cfg: cfg.withDefaults()}
	k.backoff = k.cfg.ReattachMin
	k.first = k.begin
	return k
}

// begin attaches a detached client and keeps an attached one alive.
func (k *keeper) begin(now time.Time) step {
	if k.c.Session() == nil {
		return k.attach(now)
	}
	return k.keepalive(now)
}

// attach re-attaches — over the held resumption ticket when the server
// still honours it (one symmetric round trip), the full M.1–M.3
// otherwise — within AttachTimeout.
func (k *keeper) attach(now time.Time) step {
	return k.runBy(now, now.Add(k.cfg.AttachTimeout), k.c.attachOrResume(), func(now time.Time, err error) step {
		if err != nil {
			k.cfg.Logf("transport: attach failed, backing off %v: %v", k.backoff, err)
			return k.pause(now)
		}
		k.backoff, k.missed = k.cfg.ReattachMin, 0
		k.cfg.Logf("transport: attached (boot epoch %d)", k.c.BootEpoch())
		return k.keepalive(now)
	})
}

// pause waits out a jittered backoff, doubling the next one up to
// ReattachMax, then begins again.
func (k *keeper) pause(now time.Time) step {
	wait := k.c.jittered(k.backoff)
	k.backoff = min(2*k.backoff, k.cfg.ReattachMax)
	return k.run(now, k.wait(wait), func(now time.Time, _ error) step { return k.begin(now) })
}

// wait is an exchange that sends nothing and waits d; a frame that
// arrives meanwhile answers nothing.
func (k *keeper) wait(d time.Duration) *exchange {
	return &exchange{c: k.c, once: d, accept: func(time.Time, Kind, []byte) bool { return drop(k.c.stats.unhandled) }}
}

// keepalive waits out one KeepaliveInterval, then runs a ping round.
func (k *keeper) keepalive(now time.Time) step {
	return k.run(now, k.wait(k.cfg.KeepaliveInterval), func(now time.Time, _ error) step {
		sess := k.c.Session()
		if sess == nil {
			return k.attach(now)
		}
		x, err := k.ping(now, sess)
		if err != nil {
			return k.miss(now)
		}
		return k.run(now, x, k.pinged)
	})
}

// ping seals a nonce'd ping under sess into the keeper's reused buffer,
// as SendDataVia does, and returns the round's exchange: sent once —
// retransmission is the next round's job; cadence, not urgency.
func (k *keeper) ping(now time.Time, sess *core.Session) (*exchange, error) {
	k.nonce, k.sentAt = k.c.rng.Uint64(), now
	var body [pingBodyLen]byte
	pt := (&PingBody{Nonce: k.nonce}).appendTo(body[:0])
	frame, err := AppendFrameHeader(k.buf[:0], KindSessionPing, core.SealedDataLen(len(pt)))
	if err == nil {
		frame, err = sess.AppendSealedData(frame, pt)
	}
	if err != nil {
		return nil, err
	}
	k.buf = frame
	k.c.stats.keepalivesSent.Add(1)
	return &exchange{c: k.c, frame: frame, sid: sess.ID, once: k.cfg.PingTimeout,
		accept: func(now time.Time, kind Kind, payload []byte) bool { return k.pong(now, sess, kind, payload) }}, nil
}

// pong takes the pong sealed under sess that echoes the round's nonce.
func (k *keeper) pong(now time.Time, sess *core.Session, kind Kind, payload []byte) bool {
	st := k.c.stats
	if kind != KindSessionPong {
		return drop(st.unhandled)
	}
	if core.UnmarshalDataFrameInto(payload, &k.frame) != nil {
		return drop(st.decodeErrors)
	}
	pt, err := sess.OpenDataInto(&k.frame, k.pt[:0])
	if err != nil {
		// Forged, corrupted or replayed pong; keep waiting.
		return drop(st.decodeErrors)
	}
	k.pt = pt[:0]
	var pb PongBody
	if pb.unmarshal(pt) != nil || pb.Nonce != k.nonce {
		return drop(st.unhandled)
	}
	st.keepalivesAcked.Add(1)
	// A full sealed-data round trip: it stands in for the data-path RTT.
	st.dataRTT.Observe(now.Sub(k.sentAt))
	k.epoch = pb.BootEpoch
	return true
}

// pinged judges a ping round.
func (k *keeper) pinged(now time.Time, err error) step {
	switch {
	case err == nil && k.epoch != k.c.BootEpoch():
		// A valid pong from another incarnation: an authenticated restart.
		k.c.stats.restartsDetected.Add(1)
		k.cfg.Logf("transport: pong reports new boot epoch; re-attaching")
		return k.reattach(now)
	case err == nil:
		k.missed = 0
		return k.keepalive(now)
	case errors.Is(err, core.ErrNoSession):
		// The router answered that it does not hold the session — an
		// unauthenticated hint, confirmed against the signed boot epoch of
		// a freshly solicited beacon.
		var b *core.Beacon
		return k.runBy(now, now.Add(4*k.cfg.PingTimeout), k.c.solicit(&b), func(now time.Time, err error) step {
			if err == nil && k.restarted(b) {
				k.cfg.Logf("transport: restart confirmed via beacon; re-attaching")
				return k.reattach(now)
			}
			// Unconfirmed (possibly forged) hint: treat like a missed
			// round so a real outage still trips the dead-peer limit.
			return k.miss(now)
		})
	}
	return k.miss(now)
}

// miss counts an unanswered round; MaxMissed in a row mean a dead peer.
func (k *keeper) miss(now time.Time) step {
	k.missed++
	k.c.stats.keepalivesMissed.Add(1)
	if k.missed < k.cfg.MaxMissed {
		return k.keepalive(now)
	}
	k.c.stats.deadPeerEvents.Add(1)
	k.cfg.Logf("transport: %d keepalives missed; declaring peer dead", k.missed)
	return k.reattach(now)
}

// reattach drops the orphaned session and counts and runs a re-attach.
func (k *keeper) reattach(now time.Time) step {
	k.c.setSession(nil, 0, "")
	k.c.stats.reattaches.Add(1)
	return k.attach(now)
}

// restarted checks a solicited beacon's signed boot epoch against the
// one recorded at attach. Only an authenticated epoch change (or a
// beacon proving our revocation state is behind, which forces a re-sync
// anyway) tears the session down — an attacker forging unknown-session
// rejects cannot kill a healthy session.
func (k *keeper) restarted(b *core.Beacon) bool {
	switch err := k.c.user.ObserveBeacon(b); {
	case err == nil && b.BootEpoch != k.c.BootEpoch():
		k.c.stats.restartsDetected.Add(1)
		return true
	case errors.Is(err, core.ErrRevocationStale):
		// The router moved past our installed revocation state; a
		// re-attach resynchronizes it. (The refs are not authenticated at
		// this point, but re-attaching is safe — merely costly.)
		return true
	}
	return false
}
