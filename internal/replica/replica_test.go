package replica

import (
	"sync"
	"testing"

	"slice/internal/fhandle"
	"slice/internal/netsim"
)

func addrs(n int) []netsim.Addr {
	out := make([]netsim.Addr, n)
	for i := range out {
		out[i] = netsim.Addr{Host: uint32(10 + i), Port: 2049}
	}
	return out
}

func TestMapPartitionsConsecutive(t *testing.T) {
	nodes := addrs(6)
	m := NewMap(2, nodes)
	if got := m.NumGroups(); got != 3 {
		t.Fatalf("NumGroups = %d, want 3", got)
	}
	for i, g := range m.Groups() {
		if g.ID != uint32(i) {
			t.Fatalf("group %d has ID %d", i, g.ID)
		}
		if len(g.Members) != 2 {
			t.Fatalf("group %d has %d members", i, len(g.Members))
		}
		if g.Members[0] != nodes[2*i] || g.Members[1] != nodes[2*i+1] {
			t.Fatalf("group %d members %v not consecutive", i, g.Members)
		}
		got, ok := m.GroupOf(g.Members[0])
		if !ok || got.ID != g.ID {
			t.Fatalf("GroupOf(primary of %d) = %v, %v", i, got, ok)
		}
		// Non-primaries are not lookup keys: the routing table only
		// resolves to primaries.
		if _, ok := m.GroupOf(g.Members[1]); ok {
			t.Fatalf("GroupOf matched a non-primary of group %d", i)
		}
	}
}

func TestMapRemainderFoldsIntoLastGroup(t *testing.T) {
	m := NewMap(2, addrs(5))
	if got := m.NumGroups(); got != 2 {
		t.Fatalf("NumGroups = %d, want 2", got)
	}
	if got := len(m.Groups()[1].Members); got != 3 {
		t.Fatalf("last group has %d members, want 3", got)
	}
}

func TestMapDegreeOneExpandsNothing(t *testing.T) {
	m := NewMap(1, addrs(4))
	if m.Replicated() {
		t.Fatal("degree-1 map claims to replicate")
	}
	if _, ok := m.GroupOf(addrs(4)[0]); ok {
		t.Fatal("degree-1 map resolved a group")
	}
	var nilMap *Map
	if nilMap.Replicated() {
		t.Fatal("nil map claims to replicate")
	}
}

func TestMapSwapKeepsDegree(t *testing.T) {
	m := NewMap(2, addrs(4))
	m.Swap(addrs(6))
	if m.Degree() != 2 || m.NumGroups() != 3 {
		t.Fatalf("swap left degree %d over %d groups, want 2 over 3", m.Degree(), m.NumGroups())
	}
}

func key(id uint64) fhandle.Key {
	return fhandle.Handle{Volume: 1, FileID: id, Gen: 1}.Ident()
}

func TestDirtySetCounts(t *testing.T) {
	d := NewDirtySet()
	k := key(7)
	if d.Dirty(k) || d.Len() != 0 {
		t.Fatal("fresh set not clean")
	}
	d.MarkWrite(k)
	d.MarkWrite(k) // a second overlapping write
	if !d.Dirty(k) || d.Len() != 1 {
		t.Fatalf("after two marks: dirty=%v len=%d", d.Dirty(k), d.Len())
	}
	d.ClearWrite(k)
	if !d.Dirty(k) {
		t.Fatal("object went clean with a write still in flight")
	}
	d.ClearWrite(k)
	if d.Dirty(k) || d.Len() != 0 {
		t.Fatalf("after paired clears: dirty=%v len=%d", d.Dirty(k), d.Len())
	}
	// Unpaired clear is a no-op, not an underflow.
	d.ClearWrite(k)
	d.MarkWrite(k)
	if !d.Dirty(k) || d.Len() != 1 {
		t.Fatal("stray clear corrupted the count")
	}
	d.ForceClear(k)
	if d.Dirty(k) || d.Len() != 0 {
		t.Fatal("ForceClear left the entry")
	}
}

func TestDirtySetReset(t *testing.T) {
	d := NewDirtySet()
	for i := uint64(0); i < 64; i++ {
		d.MarkWrite(key(i))
	}
	if d.Len() != 64 {
		t.Fatalf("Len = %d, want 64", d.Len())
	}
	d.Reset()
	if d.Len() != 0 || d.Dirty(key(3)) {
		t.Fatal("Reset left entries")
	}
}

func TestDirtySetConcurrent(t *testing.T) {
	d := NewDirtySet()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := key(uint64(i % 97))
				d.MarkWrite(k)
				d.ClearWrite(k)
			}
		}(w)
	}
	wg.Wait()
	if d.Len() != 0 {
		t.Fatalf("paired mark/clear from 8 writers left Len=%d", d.Len())
	}
}

func TestPeerToken(t *testing.T) {
	if PeerToken(nil) != 0 {
		t.Fatal("nil key should yield the zero token")
	}
	a := PeerToken([]byte("key-a"))
	b := PeerToken([]byte("key-b"))
	if a == 0 || b == 0 || a == b {
		t.Fatalf("tokens not distinct: %x %x", a, b)
	}
	if a != PeerToken([]byte("key-a")) {
		t.Fatal("token not deterministic")
	}
}

// TestPeerTokenDerivation pins the token semantics: nil key means open
// (zero token), and distinct keys derive distinct tokens.
func TestPeerTokenDerivation(t *testing.T) {
	if PeerToken(nil) != 0 {
		t.Fatal("nil key must derive the zero (open) token")
	}
	if PeerToken([]byte("a")) == PeerToken([]byte("b")) {
		t.Fatal("distinct keys derived the same token")
	}
	if PeerToken([]byte("a")) == 0 {
		t.Fatal("a real key derived the open token")
	}
}

// TestWithUpClearsOneMark: the pending map of a rebirth brings exactly
// one member back — its group's primary again if it was one — while the
// live map and every other down mark stay as they were.
func TestWithUpClearsOneMark(t *testing.T) {
	nodes := addrs(4)
	m := NewMap(2, nodes)
	m.MarkDown(nodes[0])
	m.MarkDown(nodes[3])
	up := m.WithUp(nodes[0])
	if g := up.Groups()[0]; len(g.Members) != 2 || g.Members[0] != nodes[0] {
		t.Fatalf("pending group 0 = %v, want the reborn primary back first", g.Members)
	}
	if g := up.Groups()[1]; len(g.Members) != 1 || g.Members[0] != nodes[2] {
		t.Fatalf("pending group 1 = %v, want node 3 still down", g.Members)
	}
	if g := m.Groups()[0]; len(g.Members) != 1 || g.Members[0] != nodes[1] {
		t.Fatalf("live group 0 = %v, want the survivor alone", g.Members)
	}
	// The copies are independent: a later swap of the live map leaves the
	// pending one alone.
	m.Swap(addrs(6))
	if g := up.Groups()[0]; g.Members[0] != nodes[0] || up.NumGroups() != 2 {
		t.Fatalf("live swap leaked into the pending map: %v", up.Groups())
	}
}
