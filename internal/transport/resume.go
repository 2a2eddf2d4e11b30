package transport

import (
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/puzzle"
	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/wire"
)

// ResumeNonceSize is the length of the client and server nonces mixed
// into a resumed session's keys.
const ResumeNonceSize = 16

// ResumeRequest asks for a symmetric-only re-attach: the STEK-sealed
// ticket (opaque to the client), a fresh client nonce, a timestamp, and a
// MAC keyed by the ticket's resumption secret over all of it. The server
// needs no per-client state to verify — it opens the ticket, re-derives
// the MAC key from the embedded secret, and checks the tag.
type ResumeRequest struct {
	Ticket    []byte
	Nonce     [ResumeNonceSize]byte
	Timestamp time.Time
	Tag       [symcrypto.MACSize]byte

	// HasSolution and the echo triple carry the client-puzzle answer when
	// the router demands one on the resume path too. The fields are under
	// the request MAC, so a solution cannot be stripped from or grafted
	// onto someone else's resume in flight.
	HasSolution      bool
	Solution         uint64
	PuzzleIssuedAt   time.Time
	PuzzleDifficulty uint8
}

// resumeMACLabel versions the request tag.
const resumeMACLabel = "peace/resume-req:v2"

// mac computes the request tag over the label, the ticket, the nonce,
// the timestamp and the puzzle solution, each as a wire field. The
// fields around the ticket are encoded on the stack and the ticket is
// MACed where it lies, so no message body is built.
func (m *ResumeRequest) mac(secret []byte) [symcrypto.MACSize]byte {
	var head [4 + len(resumeMACLabel) + 4]byte
	h := wire.AppendStringField(head[:0], resumeMACLabel)
	h = binary.BigEndian.AppendUint32(h, uint32(len(m.Ticket)))
	var tail [4 + ResumeNonceSize + 8 + resumeSolutionMaxLen]byte
	tl := wire.AppendBytesField(tail[:0], m.Nonce[:])
	tl = m.appendSolution(wire.AppendTime(tl, m.Timestamp))
	return symcrypto.MAC(resumeMACKey(secret), 0, h, m.Ticket, tl)
}

// resumeSolutionMaxLen is the encoded size of a puzzle solution block.
const resumeSolutionMaxLen = 1 + 8 + 8 + 1

// appendSolution appends the solution flag and, when set, the solution
// and the echoed puzzle parameters.
func (m *ResumeRequest) appendSolution(dst []byte) []byte {
	if !m.HasSolution {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.BigEndian.AppendUint64(dst, m.Solution)
	dst = wire.AppendTime(dst, m.PuzzleIssuedAt)
	return append(dst, m.PuzzleDifficulty)
}

// sign computes and installs the request tag.
func (m *ResumeRequest) sign(secret []byte) {
	m.Tag = m.mac(secret)
}

// verify checks the request tag against the ticket's secret, in
// constant time.
func (m *ResumeRequest) verify(secret []byte) error {
	want := m.mac(secret)
	if subtle.ConstantTimeCompare(want[:], m.Tag[:]) != 1 {
		return symcrypto.ErrBadMAC
	}
	return nil
}

// marshaledLen is the size of the encoded request.
func (m *ResumeRequest) marshaledLen() int {
	n := 4 + len(m.Ticket) + 4 + ResumeNonceSize + 8 + 4 + symcrypto.MACSize + 1
	if m.HasSolution {
		n += 8 + 8 + 1
	}
	return n
}

// appendTo appends the encoded request to dst.
func (m *ResumeRequest) appendTo(dst []byte) []byte {
	dst = wire.AppendBytesField(dst, m.Ticket)
	dst = wire.AppendBytesField(dst, m.Nonce[:])
	dst = wire.AppendTime(dst, m.Timestamp)
	dst = wire.AppendBytesField(dst, m.Tag[:])
	return m.appendSolution(dst)
}

// Marshal encodes the resume request.
func (m *ResumeRequest) Marshal() []byte {
	return m.appendTo(make([]byte, 0, m.marshaledLen()))
}

// UnmarshalResumeRequest decodes a resume request, copying the ticket so
// the result outlives the input buffer.
func UnmarshalResumeRequest(data []byte) (*ResumeRequest, error) {
	m := &ResumeRequest{}
	if err := UnmarshalResumeRequestInto(data, m); err != nil {
		return nil, err
	}
	m.Ticket = append([]byte(nil), m.Ticket...)
	return m, nil
}

// UnmarshalResumeRequestInto decodes a resume request into m without
// allocating: m.Ticket aliases data, so the caller must finish with m
// before reusing the receive buffer. This is the hot decode of the
// sharded resume path.
func UnmarshalResumeRequestInto(data []byte, m *ResumeRequest) error {
	r := wire.NewReader(data)
	tk, err := r.BytesField()
	if err != nil {
		return err
	}
	m.Ticket = tk
	nonce, err := r.BytesField()
	if err != nil {
		return err
	}
	if len(nonce) != ResumeNonceSize {
		return fmt.Errorf("transport: resume nonce size %d", len(nonce))
	}
	copy(m.Nonce[:], nonce)
	if m.Timestamp, err = r.Time(); err != nil {
		return err
	}
	tag, err := r.BytesField()
	if err != nil {
		return err
	}
	if len(tag) != symcrypto.MACSize {
		return fmt.Errorf("transport: resume tag size %d", len(tag))
	}
	copy(m.Tag[:], tag)
	has, err := r.Byte()
	if err != nil {
		return err
	}
	if has > 1 {
		return fmt.Errorf("transport: resume solution flag %d", has)
	}
	m.HasSolution = has == 1
	if m.HasSolution {
		if m.Solution, err = r.Uint64(); err != nil {
			return err
		}
		if m.PuzzleIssuedAt, err = r.Time(); err != nil {
			return err
		}
		if m.PuzzleDifficulty, err = r.Byte(); err != nil {
			return err
		}
	} else {
		m.Solution, m.PuzzleIssuedAt, m.PuzzleDifficulty = 0, time.Time{}, 0
	}
	return r.Finish()
}

// ResumeConfirm is the server's answer to a ResumeRequest. Dedup echoes
// the exchange identifier so the client can match the reply; Ciphertext
// is sealed under the NEW session's encryption key (AAD = new session
// id), so a valid confirm proves the server derived the same keys — key
// confirmation exactly as M.3 provides for the full handshake.
type ResumeConfirm struct {
	Dedup      core.SessionID
	Nonce      [ResumeNonceSize]byte // server nonce
	Ciphertext []byte
}

// Marshal encodes the resume confirm.
func (m *ResumeConfirm) Marshal() []byte {
	w := wire.NewWriter(96 + len(m.Ciphertext))
	w.BytesField(m.Dedup[:])
	w.BytesField(m.Nonce[:])
	w.BytesField(m.Ciphertext)
	return w.Bytes()
}

// UnmarshalResumeConfirm decodes a resume confirm, copying the
// ciphertext so the result outlives the input buffer.
func UnmarshalResumeConfirm(data []byte) (*ResumeConfirm, error) {
	m := &ResumeConfirm{}
	if err := UnmarshalResumeConfirmInto(data, m); err != nil {
		return nil, err
	}
	m.Ciphertext = append([]byte(nil), m.Ciphertext...)
	return m, nil
}

// UnmarshalResumeConfirmInto decodes a resume confirm into m without
// allocating: m.Ciphertext aliases data, so the caller must finish with
// m before reusing the receive buffer.
func UnmarshalResumeConfirmInto(data []byte, m *ResumeConfirm) error {
	r := wire.NewReader(data)
	d, err := r.BytesField()
	if err != nil {
		return err
	}
	if len(d) != len(m.Dedup) {
		return fmt.Errorf("transport: resume dedup size %d", len(d))
	}
	copy(m.Dedup[:], d)
	nonce, err := r.BytesField()
	if err != nil {
		return err
	}
	if len(nonce) != ResumeNonceSize {
		return fmt.Errorf("transport: resume nonce size %d", len(nonce))
	}
	copy(m.Nonce[:], nonce)
	if m.Ciphertext, err = r.BytesField(); err != nil {
		return err
	}
	return r.Finish()
}

// encodeResumeConfirm builds the KindResumeConfirm frame answering one
// resume in a single buffer: the frame header, the dedup and server
// nonce fields, and body encoded straight into the ciphertext field and
// sealed there under the new session — as its first data sequence
// number, 0, which is the one the client opens it at.
func encodeResumeConfirm(sess *core.Session, dedup core.SessionID, serverNonce *[ResumeNonceSize]byte, body *resumeOK) ([]byte, error) {
	ctLen := symcrypto.GCMNonceSize + body.marshaledLen() + symcrypto.GCMOverhead
	payloadLen := 4 + len(dedup) + 4 + ResumeNonceSize + 4 + ctLen
	frame, err := AppendFrameHeader(make([]byte, 0, HeaderSize+payloadLen), KindResumeConfirm, payloadLen)
	if err != nil {
		return nil, err
	}
	frame = wire.AppendBytesField(frame, dedup[:])
	frame = wire.AppendBytesField(frame, serverNonce[:])
	frame = binary.BigEndian.AppendUint32(frame, uint32(ctLen))
	at := len(frame)
	var gap [symcrypto.GCMNonceSize]byte
	frame = body.appendTo(append(frame, gap[:]...))
	sealed, err := sess.SealInPlace(frame[at:])
	if err != nil {
		return nil, err
	}
	return frame[:at+len(sealed)], nil
}

// resumeOKTag versions the sealed confirm body.
const resumeOKTag = "peace/resume-ok:v1"

// resumeOK is the plaintext inside a ResumeConfirm: the answering router,
// its boot epoch (the resume-path analogue of the beacon's authenticated
// restart signal), the echoed client nonce, and the reissued ticket for
// the next re-attach.
type resumeOK struct {
	RouterID  string
	BootEpoch uint64
	Nonce     [ResumeNonceSize]byte // echoed client nonce
	Ticket    []byte
}

// marshaledLen is the size of the encoded body.
func (b *resumeOK) marshaledLen() int {
	return 4 + len(resumeOKTag) + 4 + len(b.RouterID) + 8 + 4 + ResumeNonceSize + 4 + len(b.Ticket)
}

// appendTo appends the encoded body to dst.
func (b *resumeOK) appendTo(dst []byte) []byte {
	dst = wire.AppendStringField(dst, resumeOKTag)
	dst = wire.AppendStringField(dst, b.RouterID)
	dst = binary.BigEndian.AppendUint64(dst, b.BootEpoch)
	dst = wire.AppendBytesField(dst, b.Nonce[:])
	return wire.AppendBytesField(dst, b.Ticket)
}

// unmarshalResumeOK decodes a confirm body into b; b.Ticket aliases data.
func unmarshalResumeOK(data []byte, b *resumeOK) error {
	r := wire.NewReader(data)
	tag, err := r.BytesField()
	if err != nil {
		return err
	}
	if string(tag) != resumeOKTag {
		return fmt.Errorf("transport: resume body tag %q", tag)
	}
	if b.RouterID, err = r.StringField(); err != nil {
		return err
	}
	if b.BootEpoch, err = r.Uint64(); err != nil {
		return err
	}
	nonce, err := r.BytesField()
	if err != nil {
		return err
	}
	if len(nonce) != ResumeNonceSize {
		return fmt.Errorf("transport: resume body nonce size %d", len(nonce))
	}
	copy(b.Nonce[:], nonce)
	if b.Ticket, err = r.BytesField(); err != nil {
		return err
	}
	return r.Finish()
}

// openResumeConfirm derives, at now, the candidate session a confirm
// names and demands key confirmation: only a server that opened the
// ticket and derived the same keys can seal a body that opens under the
// new session id and echoes the client's nonce. The body's ticket aliases
// the freshly opened plaintext, which belongs to the caller.
func openResumeConfirm(t *resumeTicket, clientNonce *[ResumeNonceSize]byte, m *ResumeConfirm, now time.Time) (*core.Session, *resumeOK, error) {
	cand := core.ResumeSession(t.prev, t.secret, clientNonce[:], m.Nonce[:], "router", now)
	pt, err := cand.OpenDataInto(&core.DataFrame{
		Session: cand.ID, Seq: 0, Encrypted: true, Payload: m.Ciphertext,
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	b := &resumeOK{}
	if err := unmarshalResumeOK(pt, b); err != nil {
		return nil, nil, err
	}
	if b.Nonce != *clientNonce {
		return nil, nil, errors.New("transport: resume body echoes another nonce")
	}
	return cand, b, nil
}

// resumeTicket is the client's held resumption state: the opaque sealed
// blob, the secret it re-derived locally, and the session the secret
// belongs to.
type resumeTicket struct {
	blob   []byte
	secret []byte
	prev   core.SessionID
}

// HasTicket reports whether the client holds resumption state.
func (c *Client) HasTicket() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ticket != nil
}

// storeTicket records resumption state minted by an attach or resume.
func (c *Client) storeTicket(blob []byte, sess *core.Session) {
	if len(blob) == 0 || sess == nil {
		return
	}
	t := &resumeTicket{blob: blob, secret: sess.ResumptionSecret(), prev: sess.ID}
	c.mu.Lock()
	c.ticket = t
	c.mu.Unlock()
	c.stats.ticketsHeld.Store(1)
}

// clearTicket drops held resumption state (after the server refused it).
func (c *Client) clearTicket() {
	c.mu.Lock()
	c.ticket = nil
	c.mu.Unlock()
	c.stats.ticketsHeld.Store(0)
}

func (c *Client) heldTicket() *resumeTicket {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ticket
}

// Resume re-attaches over the symmetric-only ticket path: one round trip,
// no beacon, no revocation sync, no group signature. It fails with
// ErrNoTicket when no ticket is held and ErrTicketUnusable (or
// core.ErrRevocationStale) when the server refuses the ticket — the
// caller falls back to the full Attach. On success the reissued ticket
// replaces the spent one, so steady-state churn needs one full handshake
// per STEK-rotation period, not per re-attach.
func (c *Client) Resume(ctx context.Context) (*core.Session, error) {
	t := c.heldTicket()
	if t == nil {
		return nil, ErrNoTicket
	}
	r := c.newResume(t)
	if err := c.drive(ctx, r); err != nil {
		return nil, err
	}
	return r.sess, nil
}

// newResume resets the client's resume run for ticket t and returns it.
func (c *Client) newResume(t *resumeTicket) *resumeRun {
	c.resume = resumeRun{exchange: exchange{c: c}, t: t}
	return &c.resume
}

// resumeRun is the ticket resume as one phase: one exchange, completed
// by a key-confirmed ResumeConfirm for its dedup id.
type resumeRun struct {
	exchange
	t       *resumeTicket
	began   time.Time
	req     *ResumeRequest
	confirm ResumeConfirm
	sess    *core.Session
	body    *resumeOK
}

func (r *resumeRun) start(now time.Time) step {
	r.began = now
	r.c.stats.resumeAttempts.Add(1)
	if err := r.request(now, nil, 0); err != nil {
		return fail(err)
	}
	return r.exchange.start(now)
}

func (r *resumeRun) recv(now time.Time, kind Kind, payload []byte) step {
	return r.resumed(now, r.exchange.answer(now, kind, payload, r.take, r.request))
}

func (r *resumeRun) expire(now time.Time) step { return r.resumed(now, r.exchange.expire(now)) }

// request frames a resume of the ticket, with a FRESH nonce: the server
// caches its rejects by (ticket, nonce), so a puzzle retry on the old
// nonce would only replay the cached RejectPuzzle.
func (r *resumeRun) request(now time.Time, p *puzzle.Puzzle, sol uint64) error {
	req, frame, err := resumeRequest(r.t, now, p, sol)
	if err != nil {
		return err
	}
	r.req, r.frame, r.sid = req, frame, resumeDedupID(r.t.blob, req.Nonce[:])
	return nil
}

func (r *resumeRun) take(now time.Time, kind Kind, payload []byte) bool {
	st := r.c.stats
	if kind != KindResumeConfirm {
		return drop(st.unhandled)
	}
	if err := UnmarshalResumeConfirmInto(payload, &r.confirm); err != nil {
		return drop(st.decodeErrors)
	}
	if r.confirm.Dedup != r.sid {
		return drop(st.unhandled)
	}
	sess, body, err := openResumeConfirm(r.t, &r.req.Nonce, &r.confirm, now)
	if err != nil {
		return drop(st.decodeErrors)
	}
	r.sess, r.body = sess, body
	return true
}

// resumed installs the resumed session and its reissued ticket once the
// exchange completed.
func (r *resumeRun) resumed(now time.Time, st step) step {
	if !st.done || st.err != nil {
		return st
	}
	c, body := r.c, r.body
	c.user.AdoptSession(r.sess)
	// body.RouterID arrived inside the key-confirmed sealed body, so it is
	// as authenticated as the resume itself: a different ID than the
	// session's establisher means this resume was a roaming handoff.
	prev := c.setSession(r.sess, body.BootEpoch, body.RouterID)
	c.storeTicket(body.Ticket, r.sess)
	c.stats.resumeSuccesses.Add(1)
	if prev != "" && body.RouterID != "" && body.RouterID != prev {
		c.stats.handoffLatency.Observe(now.Sub(r.began))
	} else {
		c.stats.resumeLatency.Observe(now.Sub(r.began))
	}
	return st
}

// resumeRequest builds, signs and frames one resume request on t at now,
// with a fresh nonce. A non-nil p attaches its solution sol under the
// request MAC.
func resumeRequest(t *resumeTicket, now time.Time, p *puzzle.Puzzle, sol uint64) (*ResumeRequest, []byte, error) {
	req := &ResumeRequest{Ticket: t.blob, Timestamp: now}
	if _, err := rand.Read(req.Nonce[:]); err != nil {
		return nil, nil, fmt.Errorf("transport: resume nonce: %w", err)
	}
	if p != nil {
		req.HasSolution, req.Solution = true, sol
		req.PuzzleIssuedAt, req.PuzzleDifficulty = p.IssuedAt, p.Difficulty
	}
	req.sign(t.secret)
	frame, err := EncodeMessage(req)
	if err != nil {
		return nil, nil, err
	}
	return req, frame, nil
}

// AttachOrResume tries the cheap ticket path first and falls back to the
// full M.1–M.3 handshake when no ticket is held or the server refused it.
// This is the re-attach policy Maintain runs after every detected restart
// or dead peer.
func (c *Client) AttachOrResume(ctx context.Context) (*core.Session, error) {
	if err := c.drive(ctx, c.attachOrResume()); err != nil {
		return nil, err
	}
	return c.Session(), nil
}

func (c *Client) attachOrResume() phase {
	t := c.heldTicket()
	if t == nil {
		return &attachRun{c: c}
	}
	ch := &chain{}
	ch.first = func(now time.Time) step {
		return ch.run(now, c.newResume(t), func(now time.Time, err error) step {
			if err == nil {
				return step{done: true}
			}
			// Whatever the refusal (rotated STEK, stale epochs, timeout),
			// the held ticket did not work; drop it and let the full attach
			// mint a fresh one.
			c.clearTicket()
			c.stats.resumeFallbacks.Add(1)
			return ch.run(now, &attachRun{c: c}, end)
		})
	}
	return ch
}
