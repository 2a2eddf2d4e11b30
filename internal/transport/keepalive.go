package transport

import (
	"encoding/binary"
	"fmt"

	"github.com/peace-mesh/peace/internal/wire"
)

// Keepalive body tags. The bodies travel as the plaintext of a
// core.DataFrame sealed under the session key, so a pong proves the peer
// still holds the session (a rebooted router cannot produce one) and both
// directions ride the session's replay protection.
const (
	pingBodyTag = "peace/ping:v1"
	pongBodyTag = "peace/pong:v1"
)

// PingBody is the plaintext of a keepalive ping: a client-chosen nonce the
// pong must echo, binding each pong to the ping that solicited it.
type PingBody struct {
	Nonce uint64
}

// pingBodyLen is the encoded size of a ping body.
const pingBodyLen = 4 + len(pingBodyTag) + 8

// appendTo appends the encoded ping body to dst.
func (p *PingBody) appendTo(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(wire.AppendStringField(dst, pingBodyTag), p.Nonce)
}

// unmarshal decodes a ping body into p without allocating.
func (p *PingBody) unmarshal(data []byte) error {
	r := wire.NewReader(data)
	err := bodyTag(r, pingBodyTag)
	if err != nil {
		return err
	}
	if p.Nonce, err = r.Uint64(); err != nil {
		return err
	}
	return r.Finish()
}

// PongBody is the plaintext of a keepalive pong: the echoed nonce plus the
// server's boot epoch, giving the client an authenticated view of which
// process incarnation is answering.
type PongBody struct {
	Nonce     uint64
	BootEpoch uint64
}

// appendTo appends the encoded pong body to dst.
func (p *PongBody) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(wire.AppendStringField(dst, pongBodyTag), p.Nonce)
	return binary.BigEndian.AppendUint64(dst, p.BootEpoch)
}

// unmarshal decodes a pong body into p without allocating.
func (p *PongBody) unmarshal(data []byte) error {
	r := wire.NewReader(data)
	err := bodyTag(r, pongBodyTag)
	if err != nil {
		return err
	}
	if p.Nonce, err = r.Uint64(); err != nil {
		return err
	}
	if p.BootEpoch, err = r.Uint64(); err != nil {
		return err
	}
	return r.Finish()
}

// bodyTag reads a keepalive body's tag and demands want.
func bodyTag(r *wire.Reader, want string) error {
	tag, err := r.BytesField()
	if err == nil && string(tag) != want {
		err = fmt.Errorf("transport: keepalive body tag %q, want %q", tag, want)
	}
	return err
}
