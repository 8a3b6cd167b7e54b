package xdr

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestUint32RoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		e := NewEncoder(8)
		e.PutUint32(v)
		d := NewDecoder(e.Bytes())
		got, err := d.Uint32()
		return err == nil && got == v && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		e := NewEncoder(8)
		e.PutUint64(v)
		d := NewDecoder(e.Bytes())
		got, err := d.Uint64()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt64RoundTrip(t *testing.T) {
	for _, v := range []int64{0, -1, 1, -1 << 62, 1<<62 - 1} {
		e := NewEncoder(8)
		e.PutInt64(v)
		got, err := NewDecoder(e.Bytes()).Int64()
		if err != nil || got != v {
			t.Fatalf("Int64(%d) = %d, %v", v, got, err)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if len(s) > MaxOpaque {
			return true
		}
		e := NewEncoder(len(s) + 8)
		e.PutString(s)
		if e.Len()%4 != 0 {
			return false
		}
		got, err := NewDecoder(e.Bytes()).String()
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpaqueRoundTrip(t *testing.T) {
	f := func(p []byte) bool {
		if len(p) > MaxOpaque {
			return true
		}
		e := NewEncoder(len(p) + 8)
		e.PutOpaque(p)
		got, err := NewDecoder(e.Bytes()).Opaque()
		return err == nil && bytes.Equal(got, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFixedOpaquePadding(t *testing.T) {
	for n := 0; n < 9; n++ {
		e := NewEncoder(16)
		p := bytes.Repeat([]byte{0xAB}, n)
		e.PutFixedOpaque(p)
		if e.Len()%4 != 0 {
			t.Fatalf("len %d: encoded size %d not 4-aligned", n, e.Len())
		}
		got, err := NewDecoder(e.Bytes()).FixedOpaque(n)
		if err != nil || !bytes.Equal(got, p) {
			t.Fatalf("len %d: round trip failed: %v", n, err)
		}
	}
}

func TestBool(t *testing.T) {
	e := NewEncoder(8)
	e.PutBool(true)
	e.PutBool(false)
	d := NewDecoder(e.Bytes())
	if v, err := d.Bool(); err != nil || !v {
		t.Fatalf("want true, got %v, %v", v, err)
	}
	if v, err := d.Bool(); err != nil || v {
		t.Fatalf("want false, got %v, %v", v, err)
	}
}

func TestBoolRejectsBadValue(t *testing.T) {
	e := NewEncoder(4)
	e.PutUint32(7)
	if _, err := NewDecoder(e.Bytes()).Bool(); err == nil {
		t.Fatal("expected error for bool value 7")
	}
}

func TestShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if _, err := d.Uint32(); err != ErrShortBuffer {
		t.Fatalf("want ErrShortBuffer, got %v", err)
	}
	d = NewDecoder(nil)
	if _, err := d.Uint64(); err != ErrShortBuffer {
		t.Fatalf("want ErrShortBuffer, got %v", err)
	}
	if _, err := d.String(); err != ErrShortBuffer {
		t.Fatalf("want ErrShortBuffer, got %v", err)
	}
}

func TestOpaqueRejectsHugeLength(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(MaxOpaque + 1)
	if _, err := NewDecoder(e.Bytes()).Opaque(); err == nil {
		t.Fatal("expected error for oversized opaque")
	}
}

func TestOpaqueTruncatedBody(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(100) // length prefix with no body
	if _, err := NewDecoder(e.Bytes()).Opaque(); err == nil {
		t.Fatal("expected error for truncated opaque body")
	}
}

func TestSkip(t *testing.T) {
	e := NewEncoder(32)
	e.PutUint32(1)
	e.PutString("abc") // 4 + 3 + 1 pad = 8 bytes
	e.PutUint32(2)
	d := NewDecoder(e.Bytes())
	if _, err := d.Uint32(); err != nil {
		t.Fatal(err)
	}
	if err := d.Skip(4 + 3); err != nil { // skip string incl. prefix, pad-rounded
		t.Fatal(err)
	}
	v, err := d.Uint32()
	if err != nil || v != 2 {
		t.Fatalf("after skip: got %d, %v", v, err)
	}
}

func TestOffsetTracking(t *testing.T) {
	e := NewEncoder(32)
	e.PutUint32(10)
	e.PutUint64(20)
	d := NewDecoder(e.Bytes())
	if d.Offset() != 0 {
		t.Fatalf("offset = %d, want 0", d.Offset())
	}
	if _, err := d.Uint32(); err != nil {
		t.Fatal(err)
	}
	if d.Offset() != 4 {
		t.Fatalf("offset = %d, want 4", d.Offset())
	}
	if _, err := d.Uint64(); err != nil {
		t.Fatal(err)
	}
	if d.Offset() != 12 {
		t.Fatalf("offset = %d, want 12", d.Offset())
	}
}

func TestPutUint32At(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(0xAAAAAAAA)
	e.PutUint32(0xBBBBBBBB)
	buf := e.Bytes()
	if err := PutUint32At(buf, 4, 0x12345678); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(buf)
	v1, _ := d.Uint32()
	v2, _ := d.Uint32()
	if v1 != 0xAAAAAAAA || v2 != 0x12345678 {
		t.Fatalf("got %x %x", v1, v2)
	}
	if err := PutUint32At(buf, 6, 0); err == nil {
		t.Fatal("expected error writing past end")
	}
	if err := PutUint32At(buf, -1, 0); err == nil {
		t.Fatal("expected error for negative offset")
	}
}

func TestUintAt(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(0xCAFEBABE)
	d := NewDecoder(e.Bytes())
	v, err := d.UintAt(0)
	if err != nil || v != 0xCAFEBABE {
		t.Fatalf("UintAt = %x, %v", v, err)
	}
	if d.Offset() != 0 {
		t.Fatal("UintAt must not advance the decoder")
	}
	if _, err := d.UintAt(8); err == nil {
		t.Fatal("expected error past end")
	}
}

func TestSizes(t *testing.T) {
	if OpaqueSize(0) != 4 || OpaqueSize(1) != 8 || OpaqueSize(4) != 8 || OpaqueSize(5) != 12 {
		t.Fatalf("OpaqueSize wrong: %d %d %d %d",
			OpaqueSize(0), OpaqueSize(1), OpaqueSize(4), OpaqueSize(5))
	}
	if StringSize("abc") != 8 {
		t.Fatalf("StringSize(abc) = %d", StringSize("abc"))
	}
}

func TestCheckLen(t *testing.T) {
	if err := CheckLen(10, 10); err != nil {
		t.Fatal(err)
	}
	if err := CheckLen(11, 10); err == nil {
		t.Fatal("expected error")
	}
	if err := CheckLen(1<<31+1, -1); err == nil {
		t.Fatal("expected error for > MaxInt32")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(1)
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("len after reset = %d", e.Len())
	}
	e.PutUint32(2)
	v, err := NewDecoder(e.Bytes()).Uint32()
	if err != nil || v != 2 {
		t.Fatalf("got %d, %v", v, err)
	}
}

func TestStringPadding(t *testing.T) {
	for n := 0; n < 9; n++ {
		e := NewEncoder(0)
		e.PutString(string(bytes.Repeat([]byte{'x'}, n)))
		e.PutUint32(0xDEADBEEF)
		if e.Len() != 4+n+pad(n)+4 {
			t.Fatalf("len %d: encoded size %d", n, e.Len())
		}
		if tail := e.Bytes()[4+n : 4+n+pad(n)]; !bytes.Equal(tail, make([]byte, pad(n))) {
			t.Fatalf("len %d: padding %x is not zero", n, tail)
		}
	}
}

// countingPool hands out exact-capacity buffers and records the traffic.
type countingPool struct {
	gets, frees int
	live        map[*byte]bool
}

func (p *countingPool) GetBuf(n int) []byte {
	p.gets++
	b := bytes.Repeat([]byte{0xCC}, n) // recycled memory is not zeroed
	if n > 0 {
		p.live[&b[0]] = true
	}
	return b
}

func (p *countingPool) FreeBuf(b []byte) {
	p.frees++
	if cap(b) > 0 {
		b = b[:1]
		if !p.live[&b[0]] {
			panic("freed a buffer the pool did not hand out, or freed it twice")
		}
		delete(p.live, &b[0])
	}
}

// TestPooledEncoder: a pooled encoder draws every buffer from its pool,
// hands each outgrown one back, produces the same bytes as a heap
// encoder — padding zeroed although the memory is dirty — and returns
// its last buffer on Release.
func TestPooledEncoder(t *testing.T) {
	pool := &countingPool{live: map[*byte]bool{}}
	bulk := bytes.Repeat([]byte{0x5A}, 1001)
	encode := func(e *Encoder) {
		e.PutUint32(7)
		e.PutString("abcde")
		e.PutOpaque(bulk)
		e.PutUint64(1 << 40)
	}
	pooled := PooledEncoder(pool.GetBuf, pool.FreeBuf, 16)
	pe := &pooled
	encode(pe)
	he := NewEncoder(0)
	encode(he)
	if !bytes.Equal(pe.Bytes(), he.Bytes()) {
		t.Fatalf("pooled and heap encodings differ:\n%x\n%x", pe.Bytes(), he.Bytes())
	}
	if pool.gets < 2 || pool.frees != pool.gets-1 || len(pool.live) != 1 {
		t.Fatalf("gets %d frees %d live %d: outgrown buffers must go back, the current one stay", pool.gets, pool.frees, len(pool.live))
	}
	pe.Release()
	pe.Release() // harmless
	if len(pool.live) != 0 || pool.frees != pool.gets {
		t.Fatalf("after Release: gets %d frees %d live %d", pool.gets, pool.frees, len(pool.live))
	}
}

// TestReserveFillsInPlace: Reserve's region is the encoder's own memory,
// and Truncate + Reserve keeps a prefix of it with fresh padding.
func TestReserveFillsInPlace(t *testing.T) {
	e := NewEncoder(4)
	e.PutUint32(1)
	p := e.Reserve(10)
	if len(p) != 10 || cap(p) != 10 {
		t.Fatalf("region len %d cap %d", len(p), cap(p))
	}
	copy(p, "0123456789")
	if got := e.Bytes(); !bytes.Equal(got, append([]byte{0, 0, 0, 1}, "0123456789\x00\x00"...)) {
		t.Fatalf("after fill: %q", got)
	}
	e.Truncate(4)
	e.Reserve(5)
	if got := e.Bytes(); !bytes.Equal(got, append([]byte{0, 0, 0, 1}, "01234\x00\x00\x00"...)) {
		t.Fatalf("after truncate + reserve: %q", got)
	}
	own := make([]byte, 0, 8)
	b := NewEncoderBuf(own)
	b.PutUint64(0x0102030405060708)
	if &b.Bytes()[0] != &own[:1][0] {
		t.Fatal("NewEncoderBuf did not encode into the caller's buffer")
	}
	b.PutUint32(9) // outgrows it: moves to the heap, the caller's buffer is left alone
	if !bytes.Equal(b.Bytes(), []byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 9}) {
		t.Fatalf("after outgrowing: %x", b.Bytes())
	}
}

// TestStringViewAliasesItsBuffer: StringView decodes what String does,
// without a copy — the string is the buffer's own bytes, so a later write
// to the buffer shows through it — and allocates nothing.
func TestStringViewAliasesItsBuffer(t *testing.T) {
	e := NewEncoder(16)
	e.PutString("name")
	e.PutString("")
	buf := e.Bytes()
	d := NewDecoder(buf)
	s, err := d.StringView()
	if err != nil || s != "name" {
		t.Fatalf("StringView = %q, %v", s, err)
	}
	if empty, err := d.StringView(); err != nil || empty != "" {
		t.Fatalf("empty StringView = %q, %v", empty, err)
	}
	buf[4] = 'g'
	if s != "game" {
		t.Fatalf("after a write to the buffer the view reads %q: it was copied", s)
	}
	if _, err := NewDecoder(buf[:6]).StringView(); err == nil {
		t.Fatal("StringView of a truncated string succeeded")
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = NewDecoder(buf).StringView() }); n != 0 {
		t.Fatalf("StringView allocates %v times", n)
	}
}
