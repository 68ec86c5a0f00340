// Package snapcodec is the deterministic binary encoding the checkpoint
// layer serializes simulator state with. It is a dependency-free leaf so
// every subsystem package (mem, lru, machine, policy, fault, ...) can
// implement its own SnapshotState/RestoreState without import cycles.
//
// The format is deliberately primitive: fixed-width little-endian integers
// and length-prefixed byte strings, no varints, no framing. Equal state
// always encodes to equal bytes — section payloads double as the divergence
// auditor's hash input — and the decoder is sticky-error so restore code
// reads linearly and checks once at the end.
package snapcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrTruncated reports a read past the end of the payload.
var ErrTruncated = errors.New("snapcodec: truncated payload")

// Encoder appends fixed-width values to a growing buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded payload. The slice aliases the encoder's
// buffer; callers must not keep encoding afterwards.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Grow ensures room for n more bytes without reallocating. Growth is
// amortised like append's, so producers that know their exact encoded size
// call it once up front and never copy the payload while encoding it.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Reset empties the encoder and keeps its buffer for reuse. Slices returned
// by an earlier Bytes are overwritten by the next encode.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Raw appends a length-prefixed byte string.
func (e *Encoder) Raw(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder reads fixed-width values from a payload. The first failed read
// latches an error; every later read returns zero values, so restore code
// can decode a whole section and check Err once.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder reads from b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Finish returns an error unless the payload was consumed exactly.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("snapcodec: %d trailing bytes", len(d.b)-d.off)
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b)-d.off < n {
		d.err = ErrTruncated
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean byte; any value other than 0 or 1 is an error.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = errors.New("snapcodec: invalid boolean")
		}
		return false
	}
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int64 into an int.
func (d *Decoder) Int() int { return int(d.I64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.bytes()) }

// Raw reads a length-prefixed byte string without copying: the result
// aliases the decoder's input and is only valid while that input is left
// unmodified.
func (d *Decoder) Raw() []byte { return d.bytes() }

func (d *Decoder) bytes() []byte {
	n := int(d.U32())
	if d.err != nil {
		return nil
	}
	return d.take(n)
}
