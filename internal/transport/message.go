package transport

import (
	"errors"
	"fmt"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/puzzle"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/wire"
)

// BeaconRequest solicits the router's current beacon (no payload).
type BeaconRequest struct{}

// RejectCode classifies why a router refused an access request, so a
// client can distinguish "retry later" from "give up".
type RejectCode uint32

// Reject codes, mapped from the core protocol errors.
const (
	RejectUnspecified RejectCode = iota
	RejectQueueFull              // transient: ingest queue shed the request
	RejectStale                  // replay/freshness check failed
	RejectAuth                   // group-signature verification failed
	RejectRevoked                // signer's token is on the URL
	RejectPuzzle                 // missing or wrong client-puzzle solution
	RejectDraining               // transient: server is shutting down gracefully
	// RejectUnknownSession answers a keepalive ping for a session this
	// server does not hold — the unauthenticated hint that the server
	// restarted. Clients confirm against the signed beacon boot epoch
	// before tearing anything down, so a forged reject cannot kill a
	// healthy session.
	RejectUnknownSession
	// RejectTicket answers a resume request whose ticket is unusable:
	// sealed under a rotated-out STEK generation, expired, malformed, or
	// failing its resumption MAC. The client falls back to the full
	// M.1–M.3 handshake, which mints a fresh ticket.
	RejectTicket
	// RejectTicketStale answers a resume request whose ticket carries
	// revocation-epoch refs behind the router's installed lists. The
	// holder might have been revoked since issuance, so the cheap path is
	// refused; the client's fallback full attach re-syncs revocation state
	// (Phase 1.5) and re-proves membership against the current URL.
	RejectTicketStale
)

// Transient reports whether the code means "back off and retry" rather
// than "the request is bad": backpressure and graceful drain both resolve
// on their own.
func (c RejectCode) Transient() bool {
	return c == RejectQueueFull || c == RejectDraining
}

// String names the code.
func (c RejectCode) String() string {
	switch c {
	case RejectQueueFull:
		return "queue-full"
	case RejectStale:
		return "stale"
	case RejectAuth:
		return "auth"
	case RejectRevoked:
		return "revoked"
	case RejectPuzzle:
		return "puzzle"
	case RejectDraining:
		return "draining"
	case RejectUnknownSession:
		return "unknown-session"
	case RejectTicket:
		return "ticket"
	case RejectTicketStale:
		return "ticket-stale"
	default:
		return "unspecified"
	}
}

// rejectCodeFor classifies a router-side error.
func rejectCodeFor(err error) RejectCode {
	switch {
	case errors.Is(err, core.ErrQueueFull):
		return RejectQueueFull
	case errors.Is(err, core.ErrReplay):
		return RejectStale
	case errors.Is(err, core.ErrRevokedUser):
		return RejectRevoked
	case errors.Is(err, core.ErrPuzzleRequired):
		return RejectPuzzle
	case errors.Is(err, core.ErrBadAccessRequest):
		return RejectAuth
	default:
		return RejectUnspecified
	}
}

// Err maps the code back to the matching core error for errors.Is on the
// client side.
func (c RejectCode) Err() error {
	switch c {
	case RejectQueueFull:
		return core.ErrQueueFull
	case RejectStale:
		return core.ErrReplay
	case RejectAuth:
		return core.ErrBadAccessRequest
	case RejectRevoked:
		return core.ErrRevokedUser
	case RejectPuzzle:
		return core.ErrPuzzleRequired
	case RejectDraining:
		return core.ErrQueueFull
	case RejectUnknownSession:
		return core.ErrNoSession
	case RejectTicket:
		return ErrTicketUnusable
	case RejectTicketStale:
		return core.ErrRevocationStale
	default:
		return errors.New("transport: request rejected")
	}
}

// Reject is the router's negative reply to an access request: the session
// identifier it concerns, a machine-readable code and a diagnostic string.
// A RejectPuzzle reply additionally carries the challenge the router
// currently demands, so a rejected client can solve and retry without
// waiting for the next beacon broadcast.
type Reject struct {
	Session core.SessionID
	Code    RejectCode
	Reason  string
	Puzzle  *puzzle.Puzzle
}

// Marshal encodes the reject notice.
func (m *Reject) Marshal() []byte {
	w := wire.NewWriter(128 + len(m.Reason))
	w.BytesField(m.Session[:])
	w.Uint32(uint32(m.Code))
	w.StringField(m.Reason)
	if m.Puzzle != nil {
		w.Byte(1)
		w.BytesField(m.Puzzle.Marshal())
	} else {
		w.Byte(0)
	}
	return w.Bytes()
}

// UnmarshalReject decodes a reject notice.
func UnmarshalReject(data []byte) (*Reject, error) {
	r := wire.NewReader(data)
	m := &Reject{}
	sid, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	if len(sid) != len(m.Session) {
		return nil, fmt.Errorf("transport: reject session id size %d", len(sid))
	}
	copy(m.Session[:], sid)
	code, err := r.Uint32()
	if err != nil {
		return nil, err
	}
	m.Code = RejectCode(code)
	if m.Reason, err = r.StringField(); err != nil {
		return nil, err
	}
	hasPuzzle, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if hasPuzzle == 1 {
		raw, err := r.BytesField()
		if err != nil {
			return nil, err
		}
		if m.Puzzle, err = puzzle.Unmarshal(raw); err != nil {
			return nil, fmt.Errorf("transport: reject puzzle: %w", err)
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// RevocationFetch asks the router for revocation state of one list. With
// Have set, the client declares the epoch and digest it already holds and
// the router answers with the delta from that epoch when its bounded
// history still covers it; otherwise (or with Have unset) the full
// snapshot comes back.
type RevocationFetch struct {
	List       revocation.List
	Have       bool
	HaveEpoch  uint64
	HaveDigest [revocation.DigestSize]byte
}

// FetchFor converts a gap reported by core.User.RevocationGaps into the
// wire request that closes it.
func FetchFor(g revocation.Gap) *RevocationFetch {
	return &RevocationFetch{List: g.List, Have: g.Have, HaveEpoch: g.HaveEpoch, HaveDigest: g.HaveDigest}
}

// Marshal encodes the fetch request.
func (m *RevocationFetch) Marshal() []byte {
	w := wire.NewWriter(64)
	w.Byte(byte(m.List))
	if m.Have {
		w.Byte(1)
		w.Uint64(m.HaveEpoch)
		w.BytesField(m.HaveDigest[:])
	} else {
		w.Byte(0)
	}
	return w.Bytes()
}

// UnmarshalRevocationFetch decodes a fetch request.
func UnmarshalRevocationFetch(data []byte) (*RevocationFetch, error) {
	r := wire.NewReader(data)
	m := &RevocationFetch{}
	l, err := r.Byte()
	if err != nil {
		return nil, err
	}
	m.List = revocation.List(l)
	if m.List != revocation.ListURL && m.List != revocation.ListCRL {
		return nil, fmt.Errorf("transport: revocation fetch list %d", l)
	}
	have, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if have == 1 {
		m.Have = true
		if m.HaveEpoch, err = r.Uint64(); err != nil {
			return nil, err
		}
		d, err := r.BytesField()
		if err != nil {
			return nil, err
		}
		if len(d) != revocation.DigestSize {
			return nil, fmt.Errorf("transport: revocation fetch digest size %d", len(d))
		}
		copy(m.HaveDigest[:], d)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// snapshotKind maps a revocation list to the frame kind that carries its
// full snapshots.
func snapshotKind(l revocation.List) (Kind, error) {
	switch l {
	case revocation.ListURL:
		return KindURLUpdate, nil
	case revocation.ListCRL:
		return KindCRLUpdate, nil
	default:
		return KindInvalid, fmt.Errorf("transport: no kind for revocation list %d", l)
	}
}

// EncodeMessage frames any protocol message, choosing the kind from the
// concrete type.
func EncodeMessage(msg any) ([]byte, error) {
	switch m := msg.(type) {
	case *BeaconRequest, BeaconRequest:
		return EncodeFrame(KindBeaconRequest, nil)
	case *core.Beacon:
		return EncodeFrame(KindBeacon, m.Marshal())
	case *core.AccessRequest:
		return EncodeFrame(KindAccessRequest, m.Marshal())
	case *core.AccessConfirm:
		return EncodeFrame(KindAccessConfirm, m.Marshal())
	case *revocation.Snapshot:
		k, err := snapshotKind(m.List)
		if err != nil {
			return nil, err
		}
		return EncodeFrame(k, m.Marshal())
	case *revocation.Delta:
		return EncodeFrame(KindURLDelta, m.Marshal())
	case *RevocationFetch:
		return EncodeFrame(KindURLSnapshotRequest, m.Marshal())
	case *puzzle.Puzzle:
		return EncodeFrame(KindPuzzle, m.Marshal())
	case *ResumeRequest:
		n := m.marshaledLen()
		frame, err := AppendFrameHeader(make([]byte, 0, HeaderSize+n), KindResumeRequest, n)
		if err != nil {
			return nil, err
		}
		return m.appendTo(frame), nil
	case *ResumeConfirm:
		return EncodeFrame(KindResumeConfirm, m.Marshal())
	case *Reject:
		return EncodeFrame(KindReject, m.Marshal())
	default:
		return nil, fmt.Errorf("transport: cannot encode %T", msg)
	}
}

// DecodeMessage decodes a frame payload into the concrete protocol
// message for its kind. Hostile payloads yield errors, never panics. The
// kinds no router–user exchange carries (the reserved M̃ kinds, the
// backbone's) are ErrBadKind here.
func DecodeMessage(kind Kind, payload []byte) (any, error) {
	switch kind {
	case KindBeaconRequest:
		if len(payload) != 0 {
			return nil, fmt.Errorf("transport: beacon request carries %d payload bytes", len(payload))
		}
		return &BeaconRequest{}, nil
	case KindBeacon:
		return core.UnmarshalBeacon(payload)
	case KindAccessRequest:
		return core.UnmarshalAccessRequest(payload)
	case KindAccessConfirm:
		return core.UnmarshalAccessConfirm(payload)
	case KindURLUpdate, KindCRLUpdate:
		s, err := revocation.UnmarshalSnapshot(payload)
		if err != nil {
			return nil, err
		}
		if want, _ := snapshotKind(s.List); want != kind {
			return nil, fmt.Errorf("transport: %v frame carries %v snapshot", kind, s.List)
		}
		return s, nil
	case KindURLDelta:
		return revocation.UnmarshalDelta(payload)
	case KindURLSnapshotRequest:
		return UnmarshalRevocationFetch(payload)
	case KindPuzzle:
		return puzzle.Unmarshal(payload)
	case KindSessionData, KindSessionPing, KindSessionPong:
		return core.UnmarshalDataFrame(payload)
	case KindResumeRequest:
		return UnmarshalResumeRequest(payload)
	case KindResumeConfirm:
		return UnmarshalResumeConfirm(payload)
	case KindReject:
		return UnmarshalReject(payload)
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadKind, uint8(kind))
	}
}
