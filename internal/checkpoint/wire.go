package checkpoint

// Binary wire helpers shared by everything that serializes into a segment:
// little-endian, length-prefixed, and bit-exact for floats (payload values
// round-trip through math.Float32bits, never through a decimal formatter),
// which is what lets a resumed run reproduce an uninterrupted one bit for
// bit. Append* functions grow a byte slice (the slice helpers at most once
// per call, so an encoder that sizes its buffer up front never reallocates);
// Reader walks one back with a sticky error, so decode paths check once at
// the end instead of after every field.
//
// Float slices dominate every persisted byte (slabs, feature rows, WAL
// payloads). On little-endian hosts their in-memory layout already is the
// wire layout, so they move in one memmove each way; elsewhere each element
// is converted through its bit pattern. Both paths write the same bytes.

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"unsafe"
)

// bulkF32 selects the one-memmove float path: true exactly when the host
// stores a float32 in the wire's little-endian byte order. A variable so
// tests can force the portable per-element path.
var bulkF32 = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// f32Mem views v's memory as bytes (nil for an empty slice).
func f32Mem(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// F32Bytes returns v's wire bytes without a length prefix. With the bulk
// path it is a view of v's own memory — no copy, valid while v is and
// changing with it; otherwise v is encoded into buf[:0], reusing buf.
func F32Bytes(buf []byte, v []float32) []byte {
	if bulkF32 {
		return f32Mem(v)
	}
	buf = slices.Grow(buf[:0], 4*len(v))[:4*len(v)]
	putF32s(buf, v)
	return buf
}

// DecodeF32s fills dst from p, raw little-endian IEEE-754 bits with no
// length prefix; len(p) must be 4*len(dst).
func DecodeF32s(dst []float32, p []byte) {
	if bulkF32 {
		copy(f32Mem(dst), p)
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i : 4*i+4 : 4*i+4]))
	}
}

// putF32s writes v's wire bytes into p (len(p) == 4*len(v)).
func putF32s(p []byte, v []float32) {
	if bulkF32 {
		copy(p, f32Mem(v))
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint32(p[4*i:], math.Float32bits(x))
	}
}

// ErrShortBuffer is the Reader's sticky error once a read runs past the end
// of the buffer — the signature of a truncated or torn segment.
var ErrShortBuffer = errors.New("checkpoint: segment truncated")

// AppendU32 appends v little-endian.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends v little-endian.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendI64 appends v as its two's-complement u64.
func AppendI64(b []byte, v int64) []byte { return AppendU64(b, uint64(v)) }

// AppendBytes appends a u64 length prefix followed by p.
func AppendBytes(b, p []byte) []byte {
	b = AppendU64(b, uint64(len(p)))
	return append(b, p...)
}

// AppendString appends s length-prefixed.
func AppendString(b []byte, s string) []byte { return AppendBytes(b, []byte(s)) }

// AppendBools appends v length-prefixed, one byte per element.
func AppendBools(b []byte, v []bool) []byte {
	b, p := grow(b, len(v), 1)
	for i, x := range v {
		if x {
			p[i] = 1
		} else {
			p[i] = 0
		}
	}
	return b
}

// AppendI32s appends v length-prefixed, little-endian.
func AppendI32s(b []byte, v []int32) []byte {
	b, p := grow(b, len(v), 4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(p[4*i:], uint32(x))
	}
	return b
}

// AppendI64s appends v length-prefixed, little-endian.
func AppendI64s(b []byte, v []int64) []byte {
	b, p := grow(b, len(v), 8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(p[8*i:], uint64(x))
	}
	return b
}

// AppendF32s appends v length-prefixed as raw IEEE-754 bits — the bit-exact
// round trip the determinism contract requires (NaN payloads included).
func AppendF32s(b []byte, v []float32) []byte {
	b, p := grow(b, len(v), 4)
	putF32s(p, v)
	return b
}

// grow appends the u64 prefix n and extends b by n*elemSize bytes, growing
// the backing array at most once; p is the extension, for the caller to
// fill.
func grow(b []byte, n, elemSize int) (out, p []byte) {
	b = AppendU64(slices.Grow(b, 8+n*elemSize), uint64(n))
	off := len(b)
	b = b[:off+n*elemSize]
	return b, b[off:]
}

// Reader decodes a segment written with the Append helpers. The first
// out-of-bounds read poisons the Reader; every later read returns zero
// values, and Err reports the failure once.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the sticky decode error, nil if every read stayed in bounds.
func (r *Reader) Err() error { return r.err }

// Remaining reports the unread byte count.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.err = ErrShortBuffer
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// U32 reads one little-endian uint32.
func (r *Reader) U32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads one little-endian uint64.
func (r *Reader) U64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// I64 reads one two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// length reads a u64 prefix and bounds-checks it against the remaining
// bytes, at elemSize bytes per element, so a corrupt length cannot drive a
// huge allocation.
func (r *Reader) length(elemSize int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if elemSize > 0 && n > uint64(len(r.b)-r.off)/uint64(elemSize) {
		r.err = ErrShortBuffer
		return 0
	}
	return int(n)
}

// Bytes reads one length-prefixed byte slice (a copy-free view into the
// buffer; callers that retain it must copy).
func (r *Reader) Bytes() []byte {
	n := r.length(1)
	return r.take(n)
}

// String reads one length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Bools reads one length-prefixed bool slice.
func (r *Reader) Bools() []bool {
	n := r.length(1)
	p := r.take(n)
	if p == nil {
		return nil
	}
	v := make([]bool, n)
	for i, x := range p {
		v[i] = x != 0
	}
	return v
}

// I32s reads one length-prefixed int32 slice.
func (r *Reader) I32s() []int32 {
	n := r.length(4)
	p := r.take(n * 4)
	if p == nil {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(p[4*i : 4*i+4 : 4*i+4]))
	}
	return v
}

// I64s reads one length-prefixed int64 slice.
func (r *Reader) I64s() []int64 {
	n := r.length(8)
	p := r.take(n * 8)
	if p == nil {
		return nil
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(p[8*i : 8*i+8 : 8*i+8]))
	}
	return v
}

// F32s reads one length-prefixed float32 slice (raw IEEE-754 bits).
func (r *Reader) F32s() []float32 {
	n := r.length(4)
	p := r.take(n * 4)
	if p == nil {
		return nil
	}
	v := make([]float32, n)
	DecodeF32s(v, p)
	return v
}
