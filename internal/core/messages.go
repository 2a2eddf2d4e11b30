package core

import (
	"crypto/sha256"
	"fmt"
	"time"

	"github.com/peace-mesh/peace/internal/bn256"
	"github.com/peace-mesh/peace/internal/cert"
	"github.com/peace-mesh/peace/internal/puzzle"
	"github.com/peace-mesh/peace/internal/revocation"
	"github.com/peace-mesh/peace/internal/sgs"
	"github.com/peace-mesh/peace/internal/wire"
)

// SessionID uniquely identifies a session through the pair of fresh DH
// shares, per the paper: "this session is uniquely identified through
// (g^{r_R}, g^{r_j})".
type SessionID [32]byte

// NewSessionID derives the identifier from the two DH shares.
func NewSessionID(a, b *bn256.G1) SessionID {
	h := sha256.New()
	h.Write([]byte("peace/session-id:"))
	h.Write(a.Marshal())
	h.Write(b.Marshal())
	var id SessionID
	h.Sum(id[:0])
	return id
}

func (s SessionID) String() string { return fmt.Sprintf("%x", s[:8]) }

// SessionIDFromRaw derives the identifier from the already-marshaled DH
// shares, so ingress gates can address a reject to the right session
// without paying for curve decompression.
func SessionIDFromRaw(a, b []byte) SessionID {
	h := sha256.New()
	h.Write([]byte("peace/session-id:"))
	h.Write(a)
	h.Write(b)
	var id SessionID
	h.Sum(id[:0])
	return id
}

// Beacon is message M.1: the periodically broadcast, router-signed service
// announcement carrying the fresh DH parameters and the router
// certificate (plus a client puzzle under DoS defense). Instead of the
// full marshaled CRL and URL of the paper's M.1, the beacon advertises
// each list as a compact (epoch, digest, next-update) ref — O(1) bytes
// regardless of list size; attaching users fetch missing snapshots or
// deltas over the transport before handshaking.
type Beacon struct {
	RouterID string
	// BootEpoch is a random nonce drawn when the serving process starts.
	// It is covered by the router signature, so an attached user comparing
	// it against the value recorded at attach time gets an authenticated
	// restart signal: a changed BootEpoch means the router lost its
	// volatile session state and every session it held is orphaned.
	BootEpoch uint64
	G         *bn256.G1 // fresh generator g
	GR        *bn256.G1 // g^{r_R}
	Timestamp time.Time // ts_1
	Cert      *cert.Certificate
	URLRef    revocation.Ref
	CRLRef    revocation.Ref
	Puzzle    *puzzle.Puzzle // nil unless DoS defense is active
	Signature []byte         // Sig_{RSK_k} over the fields above
}

func (b *Beacon) signedBody() []byte {
	w := wire.NewWriter(256)
	w.StringField("peace/beacon:v3")
	w.StringField(b.RouterID)
	w.Uint64(b.BootEpoch)
	w.BytesField(b.G.Marshal())
	w.BytesField(b.GR.Marshal())
	w.Time(b.Timestamp)
	writeRef(w, b.URLRef)
	writeRef(w, b.CRLRef)
	if b.Puzzle != nil {
		w.Byte(1)
		w.BytesField(b.Puzzle.Marshal())
	} else {
		w.Byte(0)
	}
	return w.Bytes()
}

// SignedBody returns the canonical byte string covered by the beacon
// signature (used by verifiers and by signing routers).
func (b *Beacon) SignedBody() []byte { return b.signedBody() }

// Marshal encodes the beacon.
func (b *Beacon) Marshal() []byte {
	w := wire.NewWriter(1024)
	w.StringField(b.RouterID)
	w.Uint64(b.BootEpoch)
	w.BytesField(b.G.Marshal())
	w.BytesField(b.GR.Marshal())
	w.Time(b.Timestamp)
	w.BytesField(b.Cert.Marshal())
	writeRef(w, b.URLRef)
	writeRef(w, b.CRLRef)
	if b.Puzzle != nil {
		w.Byte(1)
		w.BytesField(b.Puzzle.Marshal())
	} else {
		w.Byte(0)
	}
	w.BytesField(b.Signature)
	return w.Bytes()
}

// UnmarshalBeacon decodes M.1.
func UnmarshalBeacon(data []byte) (*Beacon, error) {
	r := wire.NewReader(data)
	b := &Beacon{}
	var err error
	if b.RouterID, err = r.StringField(); err != nil {
		return nil, err
	}
	if b.BootEpoch, err = r.Uint64(); err != nil {
		return nil, err
	}
	if b.G, err = readG1(r); err != nil {
		return nil, fmt.Errorf("beacon g: %w", err)
	}
	if b.GR, err = readG1(r); err != nil {
		return nil, fmt.Errorf("beacon g^rR: %w", err)
	}
	if b.Timestamp, err = r.Time(); err != nil {
		return nil, err
	}
	rawCert, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	if b.Cert, err = cert.UnmarshalCertificate(rawCert); err != nil {
		return nil, fmt.Errorf("beacon cert: %w", err)
	}
	if b.URLRef, err = readRef(r); err != nil {
		return nil, fmt.Errorf("beacon url ref: %w", err)
	}
	if b.CRLRef, err = readRef(r); err != nil {
		return nil, fmt.Errorf("beacon crl ref: %w", err)
	}
	hasPuzzle, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if hasPuzzle == 1 {
		rawPuzzle, err := r.BytesField()
		if err != nil {
			return nil, err
		}
		if b.Puzzle, err = puzzle.Unmarshal(rawPuzzle); err != nil {
			return nil, fmt.Errorf("beacon puzzle: %w", err)
		}
	}
	sig, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	b.Signature = append([]byte(nil), sig...)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return b, nil
}

// AccessRequest is message M.2: the user's group-signed DH response.
type AccessRequest struct {
	GJ        *bn256.G1 // g^{r_j}
	GR        *bn256.G1 // echoed g^{r_R}
	Timestamp time.Time // ts_2
	Sig       *sgs.Signature

	// HasSolution/Solution carry the client-puzzle answer when the router
	// demanded one, together with the echoed (PuzzleIssuedAt,
	// PuzzleDifficulty) pair that lets a stateless verifier re-derive the
	// exact puzzle that was solved. The solution fields sit outside the
	// group-signed transcript: a RejectPuzzle recovery can attach a fresh
	// solution to an already-signed M.2 without another signing pass.
	HasSolution      bool
	Solution         uint64
	PuzzleIssuedAt   time.Time
	PuzzleDifficulty uint8
}

// SignedTranscript is the byte string the group signature covers:
// {g^{r_j}, g^{r_R}, ts_2} per the paper.
func (m *AccessRequest) SignedTranscript() []byte {
	w := wire.NewWriter(160)
	w.StringField("peace/m2:v1")
	w.BytesField(m.GJ.Marshal())
	w.BytesField(m.GR.Marshal())
	w.Time(m.Timestamp)
	return w.Bytes()
}

// Marshal encodes M.2.
func (m *AccessRequest) Marshal() []byte {
	w := wire.NewWriter(512)
	w.BytesField(m.GJ.Marshal())
	w.BytesField(m.GR.Marshal())
	w.Time(m.Timestamp)
	w.BytesField(m.Sig.Bytes())
	if m.HasSolution {
		w.Byte(1)
		w.Uint64(m.Solution)
		w.Time(m.PuzzleIssuedAt)
		w.Byte(m.PuzzleDifficulty)
	} else {
		w.Byte(0)
	}
	return w.Bytes()
}

// UnmarshalAccessRequest decodes M.2.
func UnmarshalAccessRequest(data []byte) (*AccessRequest, error) {
	var f m2Fields
	if err := f.walk(data); err != nil {
		return nil, err
	}
	m := &AccessRequest{
		Timestamp:        f.timestamp,
		HasSolution:      f.HasSolution,
		Solution:         f.Solution,
		PuzzleIssuedAt:   f.PuzzleIssuedAt,
		PuzzleDifficulty: f.PuzzleDifficulty,
	}
	var err error
	if m.GJ, err = new(bn256.G1).Unmarshal(f.RawGJ); err != nil {
		return nil, fmt.Errorf("m2 g^rj: %w", err)
	}
	if m.GR, err = new(bn256.G1).Unmarshal(f.RawGR); err != nil {
		return nil, fmt.Errorf("m2 g^rR: %w", err)
	}
	if m.Sig, err = sgs.ParseSignature(f.rawSig); err != nil {
		return nil, fmt.Errorf("m2 signature: %w", err)
	}
	return m, nil
}

// CheckAccessRequest reports whether UnmarshalAccessRequest accepts data,
// and allocates nothing when it does: the same field walk, then the same
// G1 rule (bn256.CheckG1) on both DH shares and the same signature rule
// (sgs.CheckSignature), with nothing built. A resume validates the M.2 it
// escrows with it, so the network log can keep the bytes.
func CheckAccessRequest(data []byte) error {
	var f m2Fields
	if err := f.walk(data); err != nil {
		return err
	}
	if _, err := bn256.CheckG1(f.RawGJ); err != nil {
		return fmt.Errorf("m2 g^rj: %w", err)
	}
	if _, err := bn256.CheckG1(f.RawGR); err != nil {
		return fmt.Errorf("m2 g^rR: %w", err)
	}
	if err := sgs.CheckSignature(f.rawSig); err != nil {
		return fmt.Errorf("m2 signature: %w", err)
	}
	return nil
}

// AccessRequestPeek is the cheap, pre-decode view of an M.2 datagram: the
// raw (still-compressed) DH shares and the puzzle-solution echo. It is all
// an ingress gate needs to verify a puzzle solution and address a reject —
// no curve unmarshal, no signature parse.
type AccessRequestPeek struct {
	RawGJ, RawGR     []byte // aliases into the input buffer
	HasSolution      bool
	Solution         uint64
	PuzzleIssuedAt   time.Time
	PuzzleDifficulty uint8
}

// PeekAccessRequest extracts the peek view from an encoded M.2 without
// decoding curve points or the group signature. The returned byte slices
// alias data.
func PeekAccessRequest(data []byte) (*AccessRequestPeek, error) {
	var f m2Fields
	if err := f.walk(data); err != nil {
		return nil, err
	}
	p := f.AccessRequestPeek
	return &p, nil
}

// m2Fields is the field layout of an encoded M.2, walked once by
// UnmarshalAccessRequest, CheckAccessRequest and PeekAccessRequest alike.
// The byte slices alias the input.
type m2Fields struct {
	AccessRequestPeek
	timestamp time.Time
	rawSig    []byte
}

// walk splits data into f's fields: g^{r_j}, g^{r_R}, ts_2, the
// signature, and the puzzle tail (a flag byte; only 1 is followed by the
// solution and its echo), with nothing after it.
func (f *m2Fields) walk(data []byte) error {
	r := wire.NewReader(data)
	var err error
	if f.RawGJ, err = r.BytesField(); err != nil {
		return fmt.Errorf("m2 g^rj: %w", err)
	}
	if f.RawGR, err = r.BytesField(); err != nil {
		return fmt.Errorf("m2 g^rR: %w", err)
	}
	if f.timestamp, err = r.Time(); err != nil {
		return err
	}
	if f.rawSig, err = r.BytesField(); err != nil {
		return err
	}
	has, err := r.Byte()
	if err != nil {
		return err
	}
	if has == 1 {
		f.HasSolution = true
		if f.Solution, err = r.Uint64(); err != nil {
			return err
		}
		if f.PuzzleIssuedAt, err = r.Time(); err != nil {
			return err
		}
		if f.PuzzleDifficulty, err = r.Byte(); err != nil {
			return err
		}
	}
	return r.Finish()
}

// AccessConfirm is message M.3: the router's key confirmation,
// E_K(MR_k, g^{r_j}, g^{r_R}).
type AccessConfirm struct {
	GJ, GR     *bn256.G1
	Ciphertext []byte
	// Ticket is the resumption ticket the serving transport may attach
	// (empty when resumption is not offered): its STEK-sealed blob, sealed
	// once more under the new session. It sits outside the paper's M.3
	// ciphertext so that the transport issues it without re-sealing the
	// confirmation, but not in the clear: the blob is the clear Ticket of
	// the client's next resume request, and a passive observer would link
	// the attach to that resume or handoff by it.
	Ticket []byte
}

// Marshal encodes M.3.
func (m *AccessConfirm) Marshal() []byte {
	w := wire.NewWriter(256 + len(m.Ticket))
	w.BytesField(m.GJ.Marshal())
	w.BytesField(m.GR.Marshal())
	w.BytesField(m.Ciphertext)
	w.BytesField(m.Ticket)
	return w.Bytes()
}

// UnmarshalAccessConfirm decodes M.3.
func UnmarshalAccessConfirm(data []byte) (*AccessConfirm, error) {
	r := wire.NewReader(data)
	m := &AccessConfirm{}
	var err error
	if m.GJ, err = readG1(r); err != nil {
		return nil, fmt.Errorf("m3 g^rj: %w", err)
	}
	if m.GR, err = readG1(r); err != nil {
		return nil, fmt.Errorf("m3 g^rR: %w", err)
	}
	ct, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	m.Ciphertext = append([]byte(nil), ct...)
	tk, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	if len(tk) > 0 {
		m.Ticket = append([]byte(nil), tk...)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// PeerHello is message M̃.1: a user's local broadcast initiating user–user
// authentication, signed with the group private key.
type PeerHello struct {
	G         *bn256.G1 // generator from the serving router's beacon
	GJ        *bn256.G1 // g^{r_j}
	Timestamp time.Time // ts_1
	Sig       *sgs.Signature
}

// SignedTranscript is the byte string the group signature covers:
// {g, g^{r_j}, ts_1}.
func (m *PeerHello) SignedTranscript() []byte {
	w := wire.NewWriter(160)
	w.StringField("peace/mt1:v1")
	w.BytesField(m.G.Marshal())
	w.BytesField(m.GJ.Marshal())
	w.Time(m.Timestamp)
	return w.Bytes()
}

// Marshal encodes M̃.1.
func (m *PeerHello) Marshal() []byte {
	w := wire.NewWriter(512)
	w.BytesField(m.G.Marshal())
	w.BytesField(m.GJ.Marshal())
	w.Time(m.Timestamp)
	w.BytesField(m.Sig.Bytes())
	return w.Bytes()
}

// UnmarshalPeerHello decodes M̃.1.
func UnmarshalPeerHello(data []byte) (*PeerHello, error) {
	r := wire.NewReader(data)
	m := &PeerHello{}
	var err error
	if m.G, err = readG1(r); err != nil {
		return nil, fmt.Errorf("mt1 g: %w", err)
	}
	if m.GJ, err = readG1(r); err != nil {
		return nil, fmt.Errorf("mt1 g^rj: %w", err)
	}
	if m.Timestamp, err = r.Time(); err != nil {
		return nil, err
	}
	rawSig, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	if m.Sig, err = sgs.ParseSignature(rawSig); err != nil {
		return nil, fmt.Errorf("mt1 signature: %w", err)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// PeerResponse is message M̃.2: the responder's group-signed DH share.
type PeerResponse struct {
	GJ        *bn256.G1 // echoed g^{r_j}
	GL        *bn256.G1 // g^{r_l}
	Timestamp time.Time // ts_2
	Sig       *sgs.Signature
}

// SignedTranscript is {g^{r_j}, g^{r_l}, ts_2}.
func (m *PeerResponse) SignedTranscript() []byte {
	w := wire.NewWriter(160)
	w.StringField("peace/mt2:v1")
	w.BytesField(m.GJ.Marshal())
	w.BytesField(m.GL.Marshal())
	w.Time(m.Timestamp)
	return w.Bytes()
}

// Marshal encodes M̃.2.
func (m *PeerResponse) Marshal() []byte {
	w := wire.NewWriter(512)
	w.BytesField(m.GJ.Marshal())
	w.BytesField(m.GL.Marshal())
	w.Time(m.Timestamp)
	w.BytesField(m.Sig.Bytes())
	return w.Bytes()
}

// UnmarshalPeerResponse decodes M̃.2.
func UnmarshalPeerResponse(data []byte) (*PeerResponse, error) {
	r := wire.NewReader(data)
	m := &PeerResponse{}
	var err error
	if m.GJ, err = readG1(r); err != nil {
		return nil, fmt.Errorf("mt2 g^rj: %w", err)
	}
	if m.GL, err = readG1(r); err != nil {
		return nil, fmt.Errorf("mt2 g^rl: %w", err)
	}
	if m.Timestamp, err = r.Time(); err != nil {
		return nil, err
	}
	rawSig, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	if m.Sig, err = sgs.ParseSignature(rawSig); err != nil {
		return nil, fmt.Errorf("mt2 signature: %w", err)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// PeerConfirm is message M̃.3: E_K(g^{r_j}, g^{r_l}, ts_1, ts_2).
type PeerConfirm struct {
	GJ, GL     *bn256.G1
	Ciphertext []byte
}

// Marshal encodes M̃.3.
func (m *PeerConfirm) Marshal() []byte {
	w := wire.NewWriter(256)
	w.BytesField(m.GJ.Marshal())
	w.BytesField(m.GL.Marshal())
	w.BytesField(m.Ciphertext)
	return w.Bytes()
}

// UnmarshalPeerConfirm decodes M̃.3.
func UnmarshalPeerConfirm(data []byte) (*PeerConfirm, error) {
	r := wire.NewReader(data)
	m := &PeerConfirm{}
	var err error
	if m.GJ, err = readG1(r); err != nil {
		return nil, fmt.Errorf("mt3 g^rj: %w", err)
	}
	if m.GL, err = readG1(r); err != nil {
		return nil, fmt.Errorf("mt3 g^rl: %w", err)
	}
	ct, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	m.Ciphertext = append([]byte(nil), ct...)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

func readG1(r *wire.Reader) (*bn256.G1, error) {
	raw, err := r.BytesField()
	if err != nil {
		return nil, err
	}
	return new(bn256.G1).Unmarshal(raw)
}
