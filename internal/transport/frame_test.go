package transport

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/puzzle"
	"github.com/peace-mesh/peace/internal/revocation"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("three-message AKA")
	for k := KindBeaconRequest; k < kindEnd; k++ {
		p := payload
		if k == KindBeaconRequest {
			p = nil
		}
		frame, err := EncodeFrame(k, p)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		gk, gp, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("%v: decode: %v", k, err)
		}
		if gk != k || !bytes.Equal(gp, p) {
			t.Fatalf("%v: round trip got %v %q", k, gk, gp)
		}
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	good, err := EncodeFrame(KindBeacon, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrFrameShort},
		{"short", good[:HeaderSize-1], ErrFrameShort},
		{"bad magic", append([]byte("NOPE"), good[4:]...), ErrBadMagic},
		{"bad version", func() []byte {
			d := append([]byte(nil), good...)
			d[4] = 99
			return d
		}(), ErrBadVersion},
		{"invalid kind zero", func() []byte {
			d := append([]byte(nil), good...)
			d[5] = 0
			return d
		}(), ErrBadKind},
		{"unknown kind", func() []byte {
			d := append([]byte(nil), good...)
			d[5] = byte(kindEnd)
			return d
		}(), ErrBadKind},
		{"trailing byte", append(append([]byte(nil), good...), 0xAA), ErrFrameLength},
		{"length overclaim", func() []byte {
			d := append([]byte(nil), good...)
			binary.BigEndian.PutUint32(d[6:10], 1000)
			return d
		}(), ErrFrameLength},
		{"length oversize", func() []byte {
			d := append([]byte(nil), good...)
			binary.BigEndian.PutUint32(d[6:10], 1<<31)
			return d
		}(), ErrOversize},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrame(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestEncodeFrameBounds(t *testing.T) {
	if _, err := EncodeFrame(KindInvalid, nil); !errors.Is(err, ErrBadKind) {
		t.Fatalf("invalid kind: %v", err)
	}
	if _, err := EncodeFrame(KindBeacon, make([]byte, MaxPayload+1)); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize payload: %v", err)
	}
}

func TestRejectRoundTrip(t *testing.T) {
	var sid core.SessionID
	for i := range sid {
		sid[i] = byte(i)
	}
	rej := &Reject{Session: sid, Code: RejectRevoked, Reason: "token on URL"}
	frame, err := EncodeMessage(rej)
	if err != nil {
		t.Fatal(err)
	}
	kind, payload, err := DecodeFrame(frame)
	if err != nil || kind != KindReject {
		t.Fatalf("decode: %v %v", kind, err)
	}
	got, err := UnmarshalReject(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Session != sid || got.Code != RejectRevoked || got.Reason != "token on URL" {
		t.Fatalf("round trip: %+v", got)
	}
	if !errors.Is(got.Code.Err(), core.ErrRevokedUser) {
		t.Fatalf("code err: %v", got.Code.Err())
	}
}

// TestMessageCodecRoundTrip frames and decodes every protocol message a
// provisioned network can produce.
func TestMessageCodecRoundTrip(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-t", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.SeedUserRevocations(); err != nil {
		t.Fatal(err)
	}
	u, peer := ln.Users[0], ln.Users[1]

	beacon, err := ln.Routers[0].Beacon()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := u.HandleBeacon(beacon, "")
	if err != nil {
		t.Fatal(err)
	}
	m3, _, err := ln.Routers[0].HandleAccessRequest(m2)
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.ObserveBeacon(beacon); err != nil {
		t.Fatal(err)
	}
	hello, err := u.StartPeerAuth("")
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := peer.HandlePeerHello(hello, "")
	if err != nil {
		t.Fatal(err)
	}
	confirm, _, err := u.HandlePeerResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	url, ok := ln.Routers[0].RevocationSnapshot(revocation.ListURL)
	if !ok {
		t.Fatal("router has no URL snapshot")
	}
	crl, ok := ln.Routers[0].RevocationSnapshot(revocation.ListCRL)
	if !ok {
		t.Fatal("router has no CRL snapshot")
	}
	fetch := &RevocationFetch{List: revocation.ListURL, Have: true, HaveEpoch: url.Epoch, HaveDigest: url.Digest()}
	delta := &revocation.Delta{
		List:       revocation.ListURL,
		FromEpoch:  url.Epoch,
		ToEpoch:    url.Epoch + 1,
		IssuedAt:   url.IssuedAt,
		NextUpdate: url.NextUpdate,
		FromDigest: url.Digest(),
		ToDigest:   url.Digest(),
		Added:      [][]byte{[]byte("tok")},
		Signature:  []byte{1, 2, 3},
	}
	pz, err := puzzle.New(rand.Reader, 4, "MR-T", time.Now())
	if err != nil {
		t.Fatal(err)
	}

	msgs := []any{&BeaconRequest{}, beacon, m2, m3, hello, resp, confirm, url, crl, fetch, delta, pz}
	for _, msg := range msgs {
		frame, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		kind, payload, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("%T: decode frame: %v", msg, err)
		}
		back, err := DecodeMessage(kind, payload)
		if err != nil {
			t.Fatalf("%T: decode message: %v", msg, err)
		}
		reframe, err := EncodeMessage(back)
		if err != nil {
			t.Fatalf("%T: re-encode: %v", msg, err)
		}
		if !bytes.Equal(frame, reframe) {
			t.Fatalf("%T: encode/decode/encode not stable", msg)
		}
	}
}

func TestExportImportCredentials(t *testing.T) {
	ln, err := NewLocalNetwork(core.Config{}, "grp-p", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ln.ExportCredentials()
	if err != nil {
		t.Fatal(err)
	}
	users, err := ImportUsers(core.Config{}, blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 3 {
		t.Fatalf("imported %d users", len(users))
	}
	// An imported user must be able to complete the AKA (after the
	// bootstrap snapshot install a provisioning service performs).
	beacon, err := ln.Routers[0].Beacon()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []revocation.List{revocation.ListURL, revocation.ListCRL} {
		snap, ok := ln.Routers[0].RevocationSnapshot(l)
		if !ok {
			t.Fatalf("router has no %v snapshot", l)
		}
		if err := users[1].InstallRevocationSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	m2, err := users[1].HandleBeacon(beacon, "grp-p")
	if err != nil {
		t.Fatal(err)
	}
	m3, _, err := ln.Routers[0].HandleAccessRequest(m2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := users[1].HandleAccessConfirm(m3); err != nil {
		t.Fatal(err)
	}
	// Corrupt blobs must fail cleanly.
	if _, err := ImportUsers(core.Config{}, blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated provision blob accepted")
	}
}
