package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame header constants.
const (
	// Version is the current wire protocol version. A router answers
	// frames of exactly this version; anything else is a decode error
	// (version negotiation is by redeployment, not in-band).
	Version = 1

	// HeaderSize is magic(4) + version(1) + kind(1) + length(4).
	HeaderSize = 10

	// MaxPayload bounds a frame payload to what fits one UDP datagram
	// over IPv4 (65535 − 20 IP − 8 UDP − header).
	MaxPayload = 65507 - HeaderSize
)

// frameMagic distinguishes PEACE datagrams from stray traffic.
var frameMagic = [4]byte{'P', 'E', 'A', 'C'}

// Exported framing errors.
var (
	ErrBadMagic    = errors.New("transport: bad frame magic")
	ErrBadVersion  = errors.New("transport: unsupported frame version")
	ErrBadKind     = errors.New("transport: unknown message kind")
	ErrFrameShort  = errors.New("transport: truncated frame")
	ErrFrameLength = errors.New("transport: frame length mismatch")
	ErrOversize    = errors.New("transport: payload exceeds datagram limit")
)

// Kind identifies which protocol message a frame carries.
type Kind uint8

// Message kinds. KindBeaconRequest has no in-paper counterpart: on the
// air M.1 is broadcast periodically, but over unicast UDP a client
// solicits the current beacon instead of waiting for one.
const (
	KindInvalid Kind = iota
	KindBeaconRequest
	KindBeacon        // M.1
	KindAccessRequest // M.2
	KindAccessConfirm // M.3
	// Reserved: M̃.1–M̃.3, the user–user AKA, specified in PROTOCOL.md
	// and tested in internal/core; not served on the wire. A router
	// socket counts them as unhandled.
	KindPeerHello
	KindPeerResponse
	KindPeerConfirm
	KindURLUpdate // full URL revocation snapshot
	KindCRLUpdate // full CRL revocation snapshot
	KindPuzzle
	KindReject
	// KindURLSnapshotRequest solicits revocation state for either list
	// (the RevocationFetch payload says which and what the client holds);
	// the router answers with a KindURLDelta when its bounded history
	// still covers the client's epoch, else with the full snapshot kind.
	KindURLSnapshotRequest
	KindURLDelta
	// KindSessionPing / KindSessionPong carry the encrypted keepalive of
	// an established session: the payload is a core.DataFrame sealed under
	// the session key, so liveness is authenticated in both directions and
	// a post-restart router (which lost the key) cannot fake it.
	KindSessionPing
	KindSessionPong
	// KindResumeRequest / KindResumeConfirm carry the symmetric-only
	// re-attach exchange: the client presents its STEK-sealed resumption
	// ticket plus a MAC keyed by the resumption secret, and the server
	// answers with a sealed confirmation and a reissued ticket — no
	// pairing, no group signature.
	KindResumeRequest
	KindResumeConfirm
	// KindSessionData carries one sealed core.DataFrame of established-
	// session traffic toward the user's attached router. A router that no
	// longer owns the session consults the backbone ownership table and
	// relays the frame toward the adopting router instead of rejecting it
	// (the roaming grace window).
	KindSessionData
	// Inter-router backbone plane, whose formats live in internal/backbone.
	// KindRouterHello / KindRouterWelcome run the certificate-authenticated
	// link handshake between two routers of one NO; KindGossip and
	// KindRelay are link-encrypted envelopes carrying peer liveness and
	// routing state, and messages routed multi-hop to one router: data
	// frames for a session that moved, and a handoff's owner ad to the
	// previous router and its acknowledgement back.
	KindRouterHello
	KindRouterWelcome
	KindGossip
	KindRelay

	kindEnd // one past the last valid kind
)

// String names the kind for logs and counters.
func (k Kind) String() string {
	switch k {
	case KindBeaconRequest:
		return "beacon-request"
	case KindBeacon:
		return "beacon"
	case KindAccessRequest:
		return "access-request"
	case KindAccessConfirm:
		return "access-confirm"
	case KindPeerHello:
		return "peer-hello"
	case KindPeerResponse:
		return "peer-response"
	case KindPeerConfirm:
		return "peer-confirm"
	case KindURLUpdate:
		return "url-update"
	case KindCRLUpdate:
		return "crl-update"
	case KindPuzzle:
		return "puzzle"
	case KindReject:
		return "reject"
	case KindURLSnapshotRequest:
		return "revocation-fetch"
	case KindURLDelta:
		return "revocation-delta"
	case KindSessionPing:
		return "session-ping"
	case KindSessionPong:
		return "session-pong"
	case KindResumeRequest:
		return "resume-request"
	case KindResumeConfirm:
		return "resume-confirm"
	case KindSessionData:
		return "session-data"
	case KindRouterHello:
		return "router-hello"
	case KindRouterWelcome:
		return "router-welcome"
	case KindGossip:
		return "gossip"
	case KindRelay:
		return "relay"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// EncodeFrame wraps payload in a versioned frame ready to send as one
// datagram.
func EncodeFrame(kind Kind, payload []byte) ([]byte, error) {
	return AppendFrame(make([]byte, 0, HeaderSize+len(payload)), kind, payload)
}

// AppendFrame appends the encoded frame to dst and returns the result.
func AppendFrame(dst []byte, kind Kind, payload []byte) ([]byte, error) {
	if kind == KindInvalid || kind >= kindEnd {
		return nil, fmt.Errorf("%w: %d", ErrBadKind, uint8(kind))
	}
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrOversize, len(payload))
	}
	dst = append(dst, frameMagic[:]...)
	dst = append(dst, Version, byte(kind))
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(payload)))
	dst = append(dst, l[:]...)
	return append(dst, payload...), nil
}

// AppendFrameHeader appends just the frame header for a payload of
// payloadLen bytes that the caller will encode in place right after it
// (the header-first form of AppendFrame for deterministic-size payloads
// like sealed data frames, where a second copy would cost the zero-alloc
// egress path its budget).
func AppendFrameHeader(dst []byte, kind Kind, payloadLen int) ([]byte, error) {
	if kind == KindInvalid || kind >= kindEnd {
		return nil, fmt.Errorf("%w: %d", ErrBadKind, uint8(kind))
	}
	if payloadLen > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrOversize, payloadLen)
	}
	dst = append(dst, frameMagic[:]...)
	dst = append(dst, Version, byte(kind))
	return binary.BigEndian.AppendUint32(dst, uint32(payloadLen)), nil
}

// DecodeFrame validates one datagram and returns its kind and payload.
// The payload aliases the input. Exactly one frame per datagram: trailing
// bytes are an error, as is a length prefix that disagrees with the
// datagram size, so a decoder can never be tricked into reading past the
// received bytes.
func DecodeFrame(datagram []byte) (Kind, []byte, error) {
	if len(datagram) < HeaderSize {
		return KindInvalid, nil, fmt.Errorf("%w: %d bytes", ErrFrameShort, len(datagram))
	}
	if [4]byte(datagram[:4]) != frameMagic {
		return KindInvalid, nil, ErrBadMagic
	}
	if datagram[4] != Version {
		return KindInvalid, nil, fmt.Errorf("%w: %d", ErrBadVersion, datagram[4])
	}
	kind := Kind(datagram[5])
	if kind == KindInvalid || kind >= kindEnd {
		return KindInvalid, nil, fmt.Errorf("%w: %d", ErrBadKind, datagram[5])
	}
	n := binary.BigEndian.Uint32(datagram[6:10])
	if n > MaxPayload {
		return KindInvalid, nil, fmt.Errorf("%w: %d bytes", ErrOversize, n)
	}
	if int(n) != len(datagram)-HeaderSize {
		return KindInvalid, nil, fmt.Errorf("%w: header says %d, datagram has %d",
			ErrFrameLength, n, len(datagram)-HeaderSize)
	}
	return kind, datagram[HeaderSize:], nil
}
