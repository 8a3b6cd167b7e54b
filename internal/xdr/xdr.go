// Package xdr implements the subset of XDR (RFC 1832) external data
// representation used by the Slice wire protocols.
//
// All quantities are encoded big-endian in multiples of four bytes, as in
// ONC RPC. Opaque data is padded to a four-byte boundary. The Encoder and
// Decoder operate on byte slices rather than streams because the µproxy
// must decode and rewrite datagrams in place without copying.
package xdr

import (
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Errors returned by the decoder. ErrShortBuffer indicates truncated input;
// ErrBadValue indicates structurally invalid input (e.g. a boolean that is
// neither 0 nor 1, or a string length beyond the decoder limit).
var (
	ErrShortBuffer = errors.New("xdr: short buffer")
	ErrBadValue    = errors.New("xdr: bad value")
)

// MaxOpaque bounds variable-length opaque and string fields to guard
// against hostile or corrupt length prefixes. 1 MiB comfortably exceeds the
// largest NFS transfer the prototype uses (64 KiB writes plus headers).
const MaxOpaque = 1 << 20

// pad returns the number of zero bytes needed to round n up to 4.
func pad(n int) int { return (4 - n&3) & 3 }

// zeros is the source of opaque padding.
var zeros [4]byte

// Encoder appends XDR-encoded values to an internal buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
	// get and free, when set, are the pool the buffer is drawn from and
	// returned to; otherwise it is ordinary heap memory.
	get  func(n int) []byte
	free func(b []byte)
}

// NewEncoder returns an encoder whose buffer has the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// NewEncoderBuf returns an encoder that appends to buf, which the caller
// keeps owning. Encoding past cap(buf) moves the contents to a heap
// buffer and leaves buf behind.
func NewEncoderBuf(buf []byte) *Encoder { return &Encoder{buf: buf} }

// PooledEncoder returns an encoder whose buffer — the first, of the
// given capacity, and each larger one it outgrows it into — is drawn
// from a pool: get returns a buffer of length n (its capacity may be
// larger, its contents are unspecified), free takes one back. A message
// that carries bulk data therefore costs one pooled buffer sized to it,
// not an allocation. The owner calls Release once the encoded bytes are
// no longer needed; forgetting to only costs the pool a buffer. It
// returns the encoder by value, for its owner to keep in memory of its
// own — a recycled struct — rather than in a fresh object.
func PooledEncoder(get func(n int) []byte, free func(b []byte), capacity int) Encoder {
	return Encoder{buf: get(capacity)[:0], get: get, free: free}
}

// Release returns a pooled encoder's buffer to its pool. The encoder,
// and every slice obtained from Bytes or Reserve, must not be used
// afterwards. On an unpooled encoder it is a no-op.
func (e *Encoder) Release() {
	if e.free != nil {
		e.free(e.buf)
		e.buf, e.get, e.free = nil, nil, nil
	}
}

// Bytes returns the encoded buffer. The slice is owned by the encoder and
// is invalidated by further Put calls.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the buffer contents but keeps the allocation.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// grow makes room for n more bytes: by doubling on the heap, or with a
// larger buffer from the pool, handing the outgrown one back.
func (e *Encoder) grow(n int) {
	need := len(e.buf) + n
	if e.get == nil {
		e.buf = append(make([]byte, 0, max(need, 2*cap(e.buf))), e.buf...)
		return
	}
	nb := e.get(need)[:len(e.buf)]
	copy(nb, e.buf)
	e.free(e.buf)
	e.buf = nb
}

// Reserve appends n bytes (plus padding to a four-byte boundary) and
// returns the n-byte region for the caller to fill in place — how a
// server reads bulk data straight into its reply. The region's contents
// are unspecified until filled; it is invalidated by further Put calls.
func (e *Encoder) Reserve(n int) []byte {
	total := n + pad(n)
	if cap(e.buf)-len(e.buf) < total {
		e.grow(total)
	}
	start := len(e.buf)
	e.buf = e.buf[:start+total]
	copy(e.buf[start+n:], zeros[:])
	return e.buf[start : start+n : start+n]
}

// Truncate discards everything after the first n encoded bytes.
func (e *Encoder) Truncate(n int) { e.buf = e.buf[:n] }

// PutUint32 appends a 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) {
	if cap(e.buf)-len(e.buf) < 4 {
		e.grow(4)
	}
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// PutInt32 appends a 32-bit signed integer.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutUint64 appends a 64-bit unsigned integer (XDR hyper).
func (e *Encoder) PutUint64(v uint64) {
	e.PutUint32(uint32(v >> 32))
	e.PutUint32(uint32(v))
}

// PutInt64 appends a 64-bit signed integer.
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutBool appends an XDR boolean (0 or 1).
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

// PutFixedOpaque appends fixed-length opaque data (no length prefix),
// padded to a four-byte boundary.
func (e *Encoder) PutFixedOpaque(p []byte) {
	copy(e.Reserve(len(p)), p)
}

// PutOpaque appends variable-length opaque data with a length prefix.
func (e *Encoder) PutOpaque(p []byte) {
	e.PutUint32(uint32(len(p)))
	e.PutFixedOpaque(p)
}

// PutString appends an XDR string.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	copy(e.Reserve(len(s)), s)
}

// Decoder consumes XDR-encoded values from a byte slice.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a decoder reading from p. The decoder does not copy p.
func NewDecoder(p []byte) *Decoder { return &Decoder{buf: p} }

// Offset returns the current decode offset from the start of the buffer.
// The µproxy uses it to locate fields for in-place rewriting.
func (d *Decoder) Offset() int { return d.off }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Skip advances the decoder by n bytes (rounded up to a 4-byte boundary).
func (d *Decoder) Skip(n int) error {
	n += pad(n)
	if d.Remaining() < n {
		return ErrShortBuffer
	}
	d.off += n
	return nil
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, ErrShortBuffer
	}
	b := d.buf[d.off:]
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	d.off += 4
	return v, nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() (uint64, error) {
	hi, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	lo, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	return uint64(hi)<<32 | uint64(lo), nil
}

// Int64 decodes a 64-bit signed integer.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes an XDR boolean, rejecting values other than 0 and 1.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("%w: bool %d", ErrBadValue, v)
}

// FixedOpaque decodes n bytes of fixed-length opaque data. The returned
// slice aliases the decoder's buffer.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	if n < 0 || d.Remaining() < n+pad(n) {
		return nil, ErrShortBuffer
	}
	p := d.buf[d.off : d.off+n]
	d.off += n + pad(n)
	return p, nil
}

// Opaque decodes variable-length opaque data. The returned slice aliases
// the decoder's buffer.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > MaxOpaque {
		return nil, fmt.Errorf("%w: opaque length %d", ErrBadValue, n)
	}
	return d.FixedOpaque(int(n))
}

// String decodes an XDR string.
func (d *Decoder) String() (string, error) {
	p, err := d.Opaque()
	return string(p), err
}

// StringView decodes an XDR string without copying it: the string
// aliases the decoder's buffer, so it is valid only while the buffer is
// and must not be kept — a server's lookup of a name in the request it is
// serving, not a name it stores.
func (d *Decoder) StringView() (string, error) {
	p, err := d.Opaque()
	return unsafe.String(unsafe.SliceData(p), len(p)), err
}

// UintAt reads the uint32 at byte offset off without advancing the decoder.
func (d *Decoder) UintAt(off int) (uint32, error) {
	if off < 0 || off+4 > len(d.buf) {
		return 0, ErrShortBuffer
	}
	b := d.buf[off:]
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

// PutUint32At overwrites the uint32 at byte offset off in buf.
// It is the primitive used for in-place datagram rewriting.
func PutUint32At(buf []byte, off int, v uint32) error {
	if off < 0 || off+4 > len(buf) {
		return ErrShortBuffer
	}
	buf[off] = byte(v >> 24)
	buf[off+1] = byte(v >> 16)
	buf[off+2] = byte(v >> 8)
	buf[off+3] = byte(v)
	return nil
}

// Uint32Size is the encoded size of a uint32.
const Uint32Size = 4

// OpaqueSize returns the encoded size of variable-length opaque data of n
// bytes, including the length prefix and padding.
func OpaqueSize(n int) int { return 4 + n + pad(n) }

// StringSize returns the encoded size of the string s.
func StringSize(s string) int { return OpaqueSize(len(s)) }

// CheckLen validates that a length prefix n (already decoded) can describe
// at most max elements; it guards slice preallocation from hostile input.
func CheckLen(n uint32, max int) error {
	if max >= 0 && n > uint32(max) {
		return fmt.Errorf("%w: length %d exceeds %d", ErrBadValue, n, max)
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("%w: length %d", ErrBadValue, n)
	}
	return nil
}
