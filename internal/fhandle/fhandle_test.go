package fhandle

import (
	"strings"
	"testing"
	"testing/quick"

	"slice/internal/xdr"
)

func sample() Handle {
	return Handle{
		Volume: 1, FileID: 0x123456789A, Type: 1,
		CellKey: 0xDEADBEEF, Site: 3, Gen: 7,
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	h := sample()
	p := h.Marshal()
	if len(p) != Size {
		t.Fatalf("marshal size %d, want %d", len(p), Size)
	}
	got, err := Unmarshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip %+v != %+v", got, h)
	}
}

func TestXDRRoundTrip(t *testing.T) {
	h := sample()
	e := xdr.NewEncoder(Size)
	h.Encode(e)
	if e.Len() != Size {
		t.Fatalf("wire size %d", e.Len())
	}
	got, err := Decode(xdr.NewDecoder(e.Bytes()))
	if err != nil || got != h {
		t.Fatalf("decode: %+v, %v", got, err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(vol uint32, id uint64, typ uint8, cell uint64, site, gen uint32) bool {
		h := Handle{Volume: vol, FileID: id, Type: typ,
			CellKey: cell, Site: site, Gen: gen}
		got, err := Unmarshal(h.Marshal())
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredHintBytes: bytes 13–15 once carried per-file placement
// hints. They are written zero, and whatever a handle minted before their
// retirement holds there is ignored on parse.
func TestRetiredHintBytes(t *testing.T) {
	h := sample()
	p := h.Marshal()
	if p[13] != 0 || p[14] != 0 || p[15] != 0 {
		t.Fatalf("hint bytes not zero: % x", p[13:16])
	}
	p[13], p[14], p[15] = 2, 0, 3 // an old mirrored+mapped handle
	got, err := Unmarshal(p)
	if err != nil || got != h {
		t.Fatalf("hint bytes changed the parse: %+v, %v", got, err)
	}
}

func TestUnmarshalRejectsBadLength(t *testing.T) {
	if _, err := Unmarshal(make([]byte, Size-1)); err == nil {
		t.Fatal("short handle accepted")
	}
	if _, err := Unmarshal(make([]byte, Size+1)); err == nil {
		t.Fatal("long handle accepted")
	}
}

func TestPredicates(t *testing.T) {
	var zero Handle
	if !zero.IsZero() {
		t.Fatal("zero handle not IsZero")
	}
	h := sample()
	if h.IsZero() {
		t.Fatal("nonzero handle IsZero")
	}
}

func TestIdentExcludesHints(t *testing.T) {
	a := sample()
	b := a
	b.Site = 9
	b.CellKey = 1
	b.Type = 2
	if a.Ident() != b.Ident() {
		t.Fatal("identity depends on non-identity fields")
	}
	c := a
	c.Gen++
	if a.Ident() == c.Ident() {
		t.Fatal("generation not part of identity")
	}
}

func TestNameKeyProperties(t *testing.T) {
	parent := sample()
	k1 := NameKey(parent, "file.txt")
	k2 := NameKey(parent, "file.txt")
	if k1 != k2 {
		t.Fatal("NameKey not deterministic")
	}
	if NameKey(parent, "file.txt") == NameKey(parent, "file.txu") {
		t.Fatal("similar names collide (suspicious)")
	}
	other := parent
	other.FileID++
	if NameKey(parent, "x") == NameKey(other, "x") {
		t.Fatal("same name under different parents collides (suspicious)")
	}
}

// TestNameKeyBalance verifies the MD5 fingerprint spreads names evenly
// over sites — the property the paper chose MD5 for (§4.1).
func TestNameKeyBalance(t *testing.T) {
	parent := sample()
	const sites = 8
	const names = 8000
	var counts [sites]int
	for i := 0; i < names; i++ {
		k := NameKey(parent, "entry"+string(rune('a'+i%26))+string(rune('0'+i%10))+string(rune(i)))
		counts[k%sites]++
	}
	mean := names / sites
	for s, c := range counts {
		if c < mean*7/10 || c > mean*13/10 {
			t.Fatalf("site %d holds %d of %d names (mean %d): poor balance", s, c, names, mean)
		}
	}
}

// TestNameKeyGolden: keys recorded from the streaming-hash NameKey, for
// parents with and without routing fields and names up to and past the
// stack-copy limit. Placement under name hashing and every directory
// hash chain follow these values, so they must never move.
func TestNameKeyGolden(t *testing.T) {
	for _, c := range []struct {
		parent Handle
		name   string
		want   uint64
	}{
		{Handle{Volume: 1, FileID: 1, Gen: 1}, "", 0xc97d5a866606c833},
		{Handle{Volume: 1, FileID: 1, Gen: 1}, "a", 0xba7d7c2af278ca07},
		{Handle{Volume: 1, FileID: 1, Gen: 1, Site: 3, CellKey: 99, Type: 2}, "src", 0x91dc939d5e4331c7},
		{Handle{Volume: 7, FileID: 0x123456789abc, Gen: 42}, "file-000123.txt", 0x90ab00e1749f53e2},
		{Handle{Volume: 0xffffffff, FileID: ^uint64(0), Gen: 0xffffffff}, "d0/x", 0xc1a49f04fb75348b},
		{Handle{Volume: 2, FileID: 1000, Gen: 3}, strings.Repeat("n", 255), 0xeb2c69597b4cac8e},
		{Handle{Volume: 2, FileID: 1000, Gen: 3}, strings.Repeat("n", 256), 0x7c3417958b24e431},
		{Handle{Volume: 2, FileID: 1000, Gen: 3}, strings.Repeat("long", 300), 0xa5816bc69675e5a7},
	} {
		if got := NameKey(c.parent, c.name); got != c.want {
			t.Errorf("NameKey(%v, %d-byte name) = %#x, want %#x", c.parent, len(c.name), got, c.want)
		}
	}
}

// TestNameKeyAllocatesNothing: a name of NFS length is hashed from the
// stack.
func TestNameKeyAllocatesNothing(t *testing.T) {
	parent := sample()
	long := strings.Repeat("x", 255)
	if n := testing.AllocsPerRun(100, func() {
		sinkKey = NameKey(parent, "file-000123.txt")
		sinkKey = NameKey(parent, long)
	}); n != 0 {
		t.Fatalf("NameKey allocates %v times per call pair", n)
	}
}

var sinkKey uint64

func TestHandleKeyIgnoresHints(t *testing.T) {
	a := sample()
	b := a
	b.Site = 99
	b.Type = 2
	b.CellKey = 0
	if HandleKey(a) != HandleKey(b) {
		t.Fatal("HandleKey depends on placement hints")
	}
	c := a
	c.FileID++
	if HandleKey(a) == HandleKey(c) {
		t.Fatal("different files share a handle key (suspicious)")
	}
}

func TestString(t *testing.T) {
	if sample().String() == "" {
		t.Fatal("empty String()")
	}
}

func TestCapability(t *testing.T) {
	key := []byte("service secret")
	h := sample()
	capped := WithCapability(key, h)
	if !VerifyCapability(key, capped) {
		t.Fatal("minted capability does not verify")
	}
	if VerifyCapability([]byte("other key"), capped) {
		t.Fatal("capability verified under the wrong key")
	}
	if VerifyCapability(key, h) {
		t.Fatal("raw handle verified without a capability")
	}
	// The capability covers identity only: routing fields may differ.
	hinted := capped
	hinted.Site = 5
	hinted.Type = 2
	if !VerifyCapability(key, hinted) {
		t.Fatal("routing-field changes invalidated the capability")
	}
	// Identity changes invalidate it.
	forged := capped
	forged.FileID++
	if VerifyCapability(key, forged) {
		t.Fatal("capability transferred to another file")
	}
	forged = capped
	forged.Gen++
	if VerifyCapability(key, forged) {
		t.Fatal("capability survived a generation bump")
	}
}

func TestCapabilityDeterministic(t *testing.T) {
	key := []byte("k")
	h := sample()
	if Capability(key, h) != Capability(key, h) {
		t.Fatal("capability not deterministic")
	}
}
