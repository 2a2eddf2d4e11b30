package sgs

import (
	"bytes"
	"fmt"
	"math/big"

	"github.com/peace-mesh/peace/internal/bn256"
)

const scalarBytes = 32

// SignatureSize is the marshaled size of a Signature in bytes:
// the leading byte, five Z_p scalars and two G1 points.
const SignatureSize = 1 + 5*scalarBytes + 2*bn256.G1Size

// CompactSignatureSize is the compressed wire size: the two G1 points are
// encoded as x-coordinate plus sign (33 bytes each).
const CompactSignatureSize = 1 + 5*scalarBytes + 2*bn256.G1CompressedSize

// sigLead is the leading byte of every marshaled signature, in both
// encodings. It names the generator mode, and per-message generators are
// the only one, so a signature led by any other byte is refused (2 would
// name fixed generators). The byte stays so that no signature's bytes
// change.
const sigLead = 1

// checkLead is the rule on a marshaled signature's leading byte, the same
// for both encodings.
func checkLead(b byte) error {
	if b != sigLead {
		return fmt.Errorf("%w: leading byte %d, want %d", ErrInvalidSignature, b, sigLead)
	}
	return nil
}

// PaperSignatureBits returns the signature length under the paper's
// parameterization (171-bit G1 elements, 170-bit scalars as in BLS [15]):
// 2·|G1| + 5·|Z_p| = 2·171 + 5·170 = 1192 bits. The benchmark harness
// reports this next to the measured BN256 size.
func PaperSignatureBits() int {
	const g1Bits, scalarBits = 171, 170
	return 2*g1Bits + 5*scalarBits
}

// PublicKeyBytes marshals the group public key (w = g2^γ; the generators
// g1, g2 are system constants).
func PublicKeyBytes(pk *PublicKey) []byte {
	return pk.W.Marshal()
}

// ParsePublicKey decodes PublicKeyBytes output, validating the point, and
// rebuilds the cached pairing e(g1, g2).
func ParsePublicKey(data []byte) (*PublicKey, error) {
	w, err := new(bn256.G2).Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("sgs: public key: %w", err)
	}
	if w.IsInfinity() {
		return nil, fmt.Errorf("sgs: public key: w is the identity")
	}
	return NewPublicKey(w), nil
}

// Bytes marshals the signature into its canonical wire form.
func (s *Signature) Bytes() []byte {
	out := make([]byte, 0, SignatureSize)
	out = append(out, sigLead)
	out = appendScalar(out, s.R)
	out = append(out, s.T1.Marshal()...)
	out = append(out, s.T2.Marshal()...)
	out = appendScalar(out, s.C)
	out = appendScalar(out, s.SAlpha)
	out = appendScalar(out, s.SX)
	out = appendScalar(out, s.SDelta)
	return out
}

// CompactBytes marshals the signature with compressed G1 points — the
// encoding that makes the paper's "≈ RSA-1024" size comparison tight.
func (s *Signature) CompactBytes() []byte {
	out := make([]byte, 0, CompactSignatureSize)
	out = append(out, sigLead)
	out = appendScalar(out, s.R)
	out = append(out, s.T1.MarshalCompressed()...)
	out = append(out, s.T2.MarshalCompressed()...)
	out = appendScalar(out, s.C)
	out = appendScalar(out, s.SAlpha)
	out = appendScalar(out, s.SX)
	out = appendScalar(out, s.SDelta)
	return out
}

// ParseCompactSignature decodes CompactBytes output.
func ParseCompactSignature(data []byte) (*Signature, error) {
	if len(data) != CompactSignatureSize {
		return nil, fmt.Errorf("%w: length %d, want %d", ErrInvalidSignature, len(data), CompactSignatureSize)
	}
	if err := checkLead(data[0]); err != nil {
		return nil, err
	}
	s := &Signature{}
	off := 1

	var err error
	if s.R, off, err = readScalar(data, off); err != nil {
		return nil, err
	}
	if s.T1, err = new(bn256.G1).UnmarshalCompressed(data[off : off+bn256.G1CompressedSize]); err != nil {
		return nil, fmt.Errorf("%w: T1: %v", ErrInvalidSignature, err)
	}
	off += bn256.G1CompressedSize
	if s.T2, err = new(bn256.G1).UnmarshalCompressed(data[off : off+bn256.G1CompressedSize]); err != nil {
		return nil, fmt.Errorf("%w: T2: %v", ErrInvalidSignature, err)
	}
	off += bn256.G1CompressedSize
	if s.C, off, err = readScalar(data, off); err != nil {
		return nil, err
	}
	if s.SAlpha, off, err = readScalar(data, off); err != nil {
		return nil, err
	}
	if s.SX, off, err = readScalar(data, off); err != nil {
		return nil, err
	}
	if s.SDelta, _, err = readScalar(data, off); err != nil {
		return nil, err
	}
	if err := checkSignatureShape(s); err != nil {
		return nil, err
	}
	return s, nil
}

// ParseSignature decodes and structurally validates a marshaled signature.
func ParseSignature(data []byte) (*Signature, error) {
	s := &Signature{}
	if err := walkSignature(data, s); err != nil {
		return nil, err
	}
	return s, nil
}

// CheckSignature reports whether ParseSignature accepts data, without
// allocating on success: it runs the same walk and builds nothing.
func CheckSignature(data []byte) error {
	return walkSignature(data, nil)
}

// Offsets into a marshaled signature (Bytes): the leading byte, R, T1, T2,
// then C, SAlpha, SX and SDelta one scalar each from sigOffC.
const (
	sigOffR  = 1
	sigOffT1 = sigOffR + scalarBytes
	sigOffT2 = sigOffT1 + bn256.G1Size
	sigOffC  = sigOffT2 + bn256.G1Size
)

// walkSignature is the one acceptance rule of a marshaled signature,
// which ParseSignature and CheckSignature both run: the exact length, the
// leading byte sigLead, five scalars below Order, and T1 and T2 valid G1
// encodings other than the identity. With s it decodes into s as well;
// with nil it only checks.
func walkSignature(data []byte, s *Signature) error {
	if len(data) != SignatureSize {
		return fmt.Errorf("%w: length %d, want %d", ErrInvalidSignature, len(data), SignatureSize)
	}
	if err := checkLead(data[0]); err != nil {
		return err
	}
	scalars := [5]int{sigOffR, sigOffC, sigOffC + scalarBytes, sigOffC + 2*scalarBytes, sigOffC + 3*scalarBytes}
	for _, off := range scalars {
		if !scalarInRange(data[off : off+scalarBytes]) {
			return fmt.Errorf("%w: scalar out of range", ErrInvalidSignature)
		}
	}
	var t1, t2 **bn256.G1
	if s != nil {
		t1, t2 = &s.T1, &s.T2
	}
	inf1, err := g1Field(data[sigOffT1:sigOffT2], t1)
	if err != nil {
		return fmt.Errorf("%w: T1: %v", ErrInvalidSignature, err)
	}
	inf2, err := g1Field(data[sigOffT2:sigOffC], t2)
	if err != nil {
		return fmt.Errorf("%w: T2: %v", ErrInvalidSignature, err)
	}
	if inf1 || inf2 {
		return fmt.Errorf("%w: degenerate T1/T2", ErrInvalidSignature)
	}
	if s == nil {
		return nil
	}
	for i, dst := range [5]**big.Int{&s.R, &s.C, &s.SAlpha, &s.SX, &s.SDelta} {
		*dst = new(big.Int).SetBytes(data[scalars[i] : scalars[i]+scalarBytes])
	}
	return nil
}

// g1Field runs bn256's G1 decoding rule on raw and reports whether raw
// encodes the identity. With dst it also decodes the point into *dst;
// with nil it allocates nothing.
func g1Field(raw []byte, dst **bn256.G1) (infinity bool, err error) {
	if dst == nil {
		return bn256.CheckG1(raw)
	}
	p, err := new(bn256.G1).Unmarshal(raw)
	if err != nil {
		return false, err
	}
	*dst = p
	return p.IsInfinity(), nil
}

// Equal reports whether two signatures are byte-for-byte identical.
func (s *Signature) Equal(o *Signature) bool {
	if s == nil || o == nil {
		return s == o
	}
	return string(s.Bytes()) == string(o.Bytes())
}

func appendScalar(out []byte, v *big.Int) []byte {
	var buf [scalarBytes]byte
	v.FillBytes(buf[:])
	return append(out, buf[:]...)
}

func readScalar(data []byte, off int) (*big.Int, int, error) {
	b := data[off : off+scalarBytes]
	if !scalarInRange(b) {
		return nil, 0, fmt.Errorf("%w: scalar out of range", ErrInvalidSignature)
	}
	return new(big.Int).SetBytes(b), off + scalarBytes, nil
}

// orderBytes is Order big-endian in one scalar's width.
var orderBytes = func() (b [scalarBytes]byte) {
	bn256.Order.FillBytes(b[:])
	return b
}()

// scalarInRange reports whether a big-endian scalar field is below Order,
// comparing the bytes where they lie.
func scalarInRange(b []byte) bool {
	return bytes.Compare(b, orderBytes[:]) < 0
}

// PrivateKeyBytes marshals a private key (A ‖ grp ‖ x); used by the setup
// layer's split-delivery (the TTP ships A ⊕ x, the GM ships (grp, x)).
func PrivateKeyBytes(k *PrivateKey) []byte {
	out := make([]byte, 0, bn256.G1Size+2*scalarBytes)
	out = append(out, k.A.Marshal()...)
	out = appendScalar(out, k.Grp)
	out = appendScalar(out, k.X)
	return out
}

// ParsePrivateKey decodes PrivateKeyBytes output.
func ParsePrivateKey(data []byte) (*PrivateKey, error) {
	if len(data) != bn256.G1Size+2*scalarBytes {
		return nil, fmt.Errorf("sgs: bad private key length %d", len(data))
	}
	a, err := new(bn256.G1).Unmarshal(data[:bn256.G1Size])
	if err != nil {
		return nil, fmt.Errorf("sgs: private key A: %w", err)
	}
	grp, off, err := readScalar(data, bn256.G1Size)
	if err != nil {
		return nil, err
	}
	x, _, err := readScalar(data, off)
	if err != nil {
		return nil, err
	}
	return &PrivateKey{A: a, Grp: grp, X: x}, nil
}
