// Package wire provides small, allocation-conscious helpers for the
// length-prefixed binary encoding used by every PEACE protocol message.
// All integers are big-endian; byte strings carry a 4-byte length prefix.
// Decoding is strict: trailing garbage and truncated fields are errors.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Exported errors.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrOversize  = errors.New("wire: field exceeds size limit")
	ErrTrailing  = errors.New("wire: trailing bytes after message")
)

// maxFieldLen bounds a single length-prefixed field (16 MiB) so corrupt
// lengths cannot trigger huge allocations.
const maxFieldLen = 16 << 20

// Writer incrementally builds a message.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given capacity hint.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// Bytes returns the encoded message.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the current encoded length.
func (w *Writer) Len() int { return len(w.buf) }

// Byte appends a single byte.
func (w *Writer) Byte(b byte) *Writer {
	w.buf = append(w.buf, b)
	return w
}

// Uint32 appends a fixed 4-byte integer.
func (w *Writer) Uint32(v uint32) *Writer {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	w.buf = append(w.buf, b[:]...)
	return w
}

// Uint64 appends a fixed 8-byte integer.
func (w *Writer) Uint64(v uint64) *Writer {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
	return w
}

// Bytes appends a length-prefixed byte string.
func (w *Writer) BytesField(p []byte) *Writer {
	w.buf = AppendBytesField(w.buf, p)
	return w
}

// String appends a length-prefixed string.
func (w *Writer) StringField(s string) *Writer {
	w.buf = AppendStringField(w.buf, s)
	return w
}

// Time appends a timestamp with nanosecond precision.
func (w *Writer) Time(t time.Time) *Writer {
	w.buf = AppendTime(w.buf, t)
	return w
}

// AppendBytesField, AppendStringField and AppendTime are the Writer's
// encodings for a caller that sizes its own buffer — a stack array, or
// the frame a message is sealed in — and appends to it directly.

// AppendBytesField appends p as a length-prefixed byte string.
func AppendBytesField(dst, p []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p)))
	return append(dst, p...)
}

// AppendStringField appends s as a length-prefixed string.
func AppendStringField(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendTime appends a timestamp with nanosecond precision.
func AppendTime(dst []byte, t time.Time) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(t.UnixNano()))
}

// Reader consumes a message produced by Writer.
type Reader struct {
	buf []byte
	off int
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader {
	return &Reader{buf: data}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Finish returns ErrTrailing unless the message was fully consumed.
func (r *Reader) Finish() error {
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.buf)-r.off)
	}
	return nil
}

// Byte reads a single byte.
func (r *Reader) Byte() (byte, error) {
	if r.Remaining() < 1 {
		return 0, ErrTruncated
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

// Uint32 reads a fixed 4-byte integer.
func (r *Reader) Uint32() (uint32, error) {
	if r.Remaining() < 4 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

// Uint64 reads a fixed 8-byte integer.
func (r *Reader) Uint64() (uint64, error) {
	if r.Remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

// BytesField reads a length-prefixed byte string. The returned slice
// aliases the input buffer. The length prefix is checked against the
// bytes actually remaining before anything is sized from it, so a short
// datagram claiming a 4 GiB field fails fast with ErrTruncated.
func (r *Reader) BytesField() ([]byte, error) {
	n, err := r.Uint32()
	if err != nil {
		return nil, err
	}
	if n > maxFieldLen {
		return nil, ErrOversize
	}
	if int64(n) > int64(r.Remaining()) {
		return nil, ErrTruncated
	}
	p := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return p, nil
}

// Count reads a uint32 element count and bounds it by what the remaining
// bytes could possibly hold, assuming each element occupies at least
// perElem encoded bytes. Decoders that pre-size slices from an attacker-
// controlled count must use this instead of Uint32 so a tiny datagram
// claiming millions of elements cannot trigger a huge allocation.
func (r *Reader) Count(perElem int) (int, error) {
	n, err := r.Uint32()
	if err != nil {
		return 0, err
	}
	if perElem < 1 {
		perElem = 1
	}
	if int64(n)*int64(perElem) > int64(r.Remaining()) {
		return 0, fmt.Errorf("%w: count %d needs ≥ %d bytes, %d remain",
			ErrTruncated, n, int64(n)*int64(perElem), r.Remaining())
	}
	return int(n), nil
}

// StringField reads a length-prefixed string.
func (r *Reader) StringField() (string, error) {
	p, err := r.BytesField()
	return string(p), err
}

// Time reads a timestamp written by Writer.Time.
func (r *Reader) Time() (time.Time, error) {
	v, err := r.Uint64()
	if err != nil {
		return time.Time{}, err
	}
	return time.Unix(0, int64(v)), nil
}
