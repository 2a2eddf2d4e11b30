package transport

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/symcrypto"
	"github.com/peace-mesh/peace/internal/wire"
)

// ErrTicketUnusable is the client-side mapping of RejectTicket: the
// resumption ticket was refused (expired, STEK rotated out, malformed)
// and a full handshake is required.
var ErrTicketUnusable = errors.New("transport: resumption ticket unusable")

// ErrNoTicket is returned by Client.Resume when the client holds no
// resumption state.
var ErrNoTicket = errors.New("transport: no resumption ticket held")

// ticketTag versions the sealed ticket body. v2 added the issuing-router
// identity, which the metro backbone uses to recognize a cross-router
// roaming handoff at the adopting router.
const ticketTag = "peace/ticket:v2"

// ticketAAD binds sealed tickets to their purpose so a STEK blob cannot
// be replayed into a different decryption context.
var ticketAAD = []byte("peace/ticket-aad:v1")

// Ticket is the plaintext of a resumption ticket — what the server seals
// under its rotating STEK and hands to the client as an opaque blob. The
// server keeps no per-ticket state: everything needed to resurrect the
// session comes back inside the blob.
//
// Secret is the resumption master secret (both endpoints derive it from
// the original session keys, so possession proves the holder completed
// the original AKA). URLEpoch/CRLEpoch pin the revocation state the
// holder was verified against: a resume is only honored while the
// router's installed lists still carry exactly those epochs, so any
// revocation event invalidates every earlier ticket wholesale. Escrow is
// the marshaled original M.2 — the accountability handle the router
// re-installs in its network log on resume, keeping resumed sessions as
// auditable as fresh ones.
type Ticket struct {
	Secret    [core.ResumeSecretSize]byte
	Prev      core.SessionID // session the secret was derived from
	Router    string         // issuing router — a different adopter is a roaming handoff
	URLEpoch  uint64
	CRLEpoch  uint64
	BootEpoch uint64 // issuing incarnation (diagnostic, not enforced)
	Expiry    time.Time
	Escrow    []byte // marshaled core.AccessRequest (M.2)
}

// marshaledLen is the size of the encoded ticket plaintext.
func (t *Ticket) marshaledLen() int {
	return 4 + len(ticketTag) + 4 + len(t.Router) + 4 + len(t.Secret) + 4 + len(t.Prev) +
		3*8 + 8 + 4 + len(t.Escrow)
}

// appendTo appends the encoded ticket plaintext to dst.
func (t *Ticket) appendTo(dst []byte) []byte {
	dst = wire.AppendStringField(dst, ticketTag)
	dst = wire.AppendStringField(dst, t.Router)
	dst = wire.AppendBytesField(dst, t.Secret[:])
	dst = wire.AppendBytesField(dst, t.Prev[:])
	dst = binary.BigEndian.AppendUint64(dst, t.URLEpoch)
	dst = binary.BigEndian.AppendUint64(dst, t.CRLEpoch)
	dst = binary.BigEndian.AppendUint64(dst, t.BootEpoch)
	dst = wire.AppendTime(dst, t.Expiry)
	return wire.AppendBytesField(dst, t.Escrow)
}

// Marshal encodes the ticket plaintext.
func (t *Ticket) Marshal() []byte {
	return t.appendTo(make([]byte, 0, t.marshaledLen()))
}

// UnmarshalTicket decodes a ticket plaintext. The escrow bytes are
// copied, so the result outlives the decryption buffer.
func UnmarshalTicket(data []byte) (*Ticket, error) {
	t := &Ticket{}
	if err := unmarshalTicketInto(data, t); err != nil {
		return nil, err
	}
	t.Escrow = append([]byte(nil), t.Escrow...)
	return t, nil
}

// unmarshalTicketInto decodes a ticket plaintext into t; t.Escrow
// aliases data.
func unmarshalTicketInto(data []byte, t *Ticket) error {
	r := wire.NewReader(data)
	tag, err := r.BytesField()
	if err != nil {
		return err
	}
	if string(tag) != ticketTag {
		return fmt.Errorf("transport: ticket tag %q", tag)
	}
	router, err := r.BytesField()
	if err != nil {
		return err
	}
	if string(router) != t.Router { // a reused t keeps its string
		t.Router = string(router)
	}
	sec, err := r.BytesField()
	if err != nil {
		return err
	}
	if len(sec) != len(t.Secret) {
		return fmt.Errorf("transport: ticket secret size %d", len(sec))
	}
	copy(t.Secret[:], sec)
	prev, err := r.BytesField()
	if err != nil {
		return err
	}
	if len(prev) != len(t.Prev) {
		return fmt.Errorf("transport: ticket session id size %d", len(prev))
	}
	copy(t.Prev[:], prev)
	if t.URLEpoch, err = r.Uint64(); err != nil {
		return err
	}
	if t.CRLEpoch, err = r.Uint64(); err != nil {
		return err
	}
	if t.BootEpoch, err = r.Uint64(); err != nil {
		return err
	}
	if t.Expiry, err = r.Time(); err != nil {
		return err
	}
	if t.Escrow, err = r.BytesField(); err != nil {
		return err
	}
	return r.Finish()
}

// Seal encrypts the ticket under the ring's current STEK generation. The
// plaintext is encoded straight into the blob and sealed where it lies.
func (t *Ticket) Seal(rng io.Reader, ring *symcrypto.TicketKeyRing) ([]byte, error) {
	return t.sealAfter(rng, ring, 0)
}

// sealAfter is Seal into a buffer that keeps gap bytes free in front of
// the blob and room for one more AEAD tag behind it, so that the caller can
// seal the whole once more where it lies (Session.SealInPlace with a gap
// of GCMNonceSize). It returns the gap and the blob.
func (t *Ticket) sealAfter(rng io.Reader, ring *symcrypto.TicketKeyRing, gap int) ([]byte, error) {
	head := gap + symcrypto.SealHeaderSize
	buf := make([]byte, head, head+t.marshaledLen()+2*symcrypto.GCMOverhead)
	blob, err := ring.SealInPlace(rng, t.appendTo(buf)[gap:], ticketAAD)
	if err != nil {
		return nil, err
	}
	return buf[:gap+len(blob)], nil
}

// OpenTicket decrypts and decodes a sealed ticket blob. The escrow aliases
// the decrypted plaintext, which belongs to the result alone.
// symcrypto.ErrUnknownTicketKey means the STEK generation rotated out.
func OpenTicket(blob []byte, ring *symcrypto.TicketKeyRing) (*Ticket, error) {
	t := &Ticket{}
	if _, err := openTicketInto(blob, ring, t, nil); err != nil {
		return nil, err
	}
	return t, nil
}

// openTicketInto is OpenTicket into a caller's t, decrypting into
// scratch's array (grown when it is short). It returns the buffer to keep
// as the next scratch; on success that is the plaintext, which t.Escrow
// aliases and which also holds the resumption secret, so whatever
// outlives the next open is copied out of it.
func openTicketInto(blob []byte, ring *symcrypto.TicketKeyRing, t *Ticket, scratch []byte) ([]byte, error) {
	pt, err := ring.OpenAppend(scratch[:0], blob, ticketAAD)
	if err != nil {
		return scratch, err
	}
	return pt, unmarshalTicketInto(pt, t)
}

// resumeMACKey derives the key authenticating resume requests from the
// ticket's resumption secret.
func resumeMACKey(secret []byte) symcrypto.Key {
	return symcrypto.DeriveKey(secret, "peace/resume-mac:v1")
}

// resumeDedupID derives the duplicate-suppression identifier of one
// resume exchange. It covers the sealed blob and the client nonce, so a
// retransmitted request replays the cached confirm (exactly one session
// per exchange) while a fresh nonce starts a distinct exchange.
func resumeDedupID(ticket []byte, nonce []byte) core.SessionID {
	h := sha256.New()
	h.Write([]byte("peace/resume-dedup:v1"))
	h.Write(ticket)
	h.Write(nonce)
	var id core.SessionID
	h.Sum(id[:0])
	return id
}
