package proxy_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"slice/internal/ensemble"
	"slice/internal/netsim"
	"slice/internal/route"
)

func newEnsemble(t *testing.T, mutate func(*ensemble.Config)) *ensemble.Ensemble {
	t.Helper()
	cfg := ensemble.Config{
		StorageNodes:     4,
		DirServers:       2,
		SmallFileServers: 1,
		Coordinator:      true,
		NameKind:         route.MkdirSwitching,
		MkdirP:           0.5,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := ensemble.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestStageAccounting(t *testing.T) {
	e := newEnsemble(t, nil)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, _, err := c.Create(c.Root(), "f", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(fh, []byte("stats")); err != nil {
		t.Fatal(err)
	}
	st := e.Proxy.Stats()
	if st.Requests == 0 || st.Responses == 0 {
		t.Fatalf("no traffic accounted: %+v", st)
	}
	if st.Absorbed == 0 {
		t.Fatalf("commit not absorbed: %+v", st)
	}
	// That every stage is charged, and exactly, is TestStageClockBudget's
	// to check under a counting clock; this one must not depend on the
	// wall clock's resolution.
	if st.TotalNS() != st.InterceptNS+st.DecodeNS+st.RewriteNS+st.SoftStateNS {
		t.Fatal("TotalNS inconsistent")
	}
}

// TestIOResponsesCarryAttributes: storage and small-file replies have no
// attributes; the client must still observe a populated attribute block,
// patched in by the µproxy (§4.1).
func TestIOResponsesCarryAttributes(t *testing.T) {
	e := newEnsemble(t, nil)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, at0, err := c.Create(c.Root(), "attrs", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if at0.FileID == 0 {
		t.Fatal("create returned empty attrs")
	}
	payload := bytes.Repeat([]byte("a"), 100*1024) // crosses the threshold
	if _, err := c.Write(fh, 0, payload, false); err != nil {
		t.Fatal(err)
	}
	// GETATTR before any commit: the directory server does not know the
	// size yet, but the µproxy cache does and overlays it.
	at, err := c.GetAttr(fh)
	if err != nil {
		t.Fatal(err)
	}
	if at.Size != uint64(len(payload)) {
		t.Fatalf("observed size %d before writeback, want %d (proxy overlay)", at.Size, len(payload))
	}
	// After the proxy pushes attributes, the directory server agrees.
	e.Proxy.WritebackAttrs()
	e.Proxy.DropSoftState() // force GETATTR to reflect the dir server
	at, err = c.GetAttr(fh)
	if err != nil {
		t.Fatal(err)
	}
	if at.Size != uint64(len(payload)) {
		t.Fatalf("directory server size %d after writeback, want %d", at.Size, len(payload))
	}
}

// TestMirroredWriteFanout: with 2-way replica groups the µproxy fans
// every bulk WRITE out to both members of the stripe's group.
func TestMirroredWriteFanout(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) { cfg.Replication = 2 })
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, _, err := c.Create(c.Root(), "m", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 128*1024)
	if err := c.WriteFile(fh, data); err != nil {
		t.Fatal(err)
	}
	// Above-threshold bytes appear twice across the array.
	var bulk uint64
	for _, sn := range e.Storage {
		bulk += sn.Store().Stats().BytesWritten
	}
	want := uint64(2 * (128 - 64) * 1024)
	if bulk < want {
		t.Fatalf("bulk bytes %d, want >= %d for two replicas", bulk, want)
	}
}

// TestRetransmissionsAcrossLossyNetwork drives the full stack over a
// dropping fabric: end-to-end retransmission must recover everything.
func TestRetransmissionsAcrossLossyNetwork(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) {
		cfg.Net = netsim.Config{LossRate: 0.05, Seed: 11}
	})
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir, err := c.MkdirAll(c.Root(), "lossy")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		fh, _, err := c.Create(dir, string(rune('a'+i)), 0o644, true)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		if err := c.WriteFile(fh, []byte{byte(i)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	ents, err := c.ReadDir(dir)
	if err != nil || len(ents) != 10 {
		t.Fatalf("readdir over lossy net: %d entries, %v", len(ents), err)
	}
}

func TestUnrelatedTrafficPassesThrough(t *testing.T) {
	e := newEnsemble(t, nil)
	// Two endpoints exchanging non-NFS datagrams across the tapped
	// fabric must be left alone by the µproxy.
	a, err := e.Net.Bind(netsim.Addr{Host: 150, Port: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Net.Bind(netsim.Addr{Host: 151, Port: 7})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("not rpc traffic at all......")
	if err := a.SendTo(b.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	d, err := b.Recv(time.Second)
	if err != nil {
		t.Fatalf("bystander traffic not delivered: %v", err)
	}
	if !bytes.Equal(netsim.Payload(d), msg) {
		t.Fatal("bystander traffic modified")
	}
}

func TestProxyCloseDetaches(t *testing.T) {
	e := newEnsemble(t, nil)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Create(c.Root(), "pre", 0o644, true); err != nil {
		t.Fatal(err)
	}
	e.Proxy.Close()
	// With the µproxy gone, calls to the virtual server time out: nothing
	// else answers that address.
	if err := c.Null(); err == nil {
		t.Fatal("virtual server answered without the µproxy")
	}
}

func TestCachedAttrExposure(t *testing.T) {
	e := newEnsemble(t, nil)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fh, _, err := c.Create(c.Root(), "cached", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fh, 0, []byte("12345"), false); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(fh); err != nil { // write-behind: force the WRITE out
		t.Fatal(err)
	}
	ok, size := e.Proxy.CachedAttr(fh)
	if !ok || size != 5 {
		t.Fatalf("cached attr: ok=%v size=%d", ok, size)
	}
	e.Proxy.DropSoftState()
	if ok, _ := e.Proxy.CachedAttr(fh); ok {
		t.Fatal("cache survived DropSoftState")
	}
}

// TestAttrCacheEvictionWritesBack: a bounded attribute cache must push
// dirty entries to the directory servers when they are evicted (§4.1).
func TestAttrCacheEvictionWritesBack(t *testing.T) {
	e := newEnsemble(t, nil)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var fhs []struct {
		name string
		size int
	}
	handles := make(map[string]uint64)
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("evict%02d", i)
		fh, _, err := c.Create(c.Root(), name, 0o644, true)
		if err != nil {
			t.Fatal(err)
		}
		size := 100 + i
		if _, err := c.Write(fh, 0, bytes.Repeat([]byte("e"), size), false); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(fh); err != nil { // write-behind: land it before eviction
			t.Fatal(err)
		}
		fhs = append(fhs, struct {
			name string
			size int
		}{name, size})
		handles[name] = fh.FileID
	}

	// Push everything (dirty flush + capacity eviction) and drop the
	// cache so GETATTR reflects only the directory servers' state.
	e.Proxy.WritebackAttrs()
	e.Proxy.DropSoftState()

	for _, f := range fhs {
		fh, at, err := c.Lookup(c.Root(), f.name)
		if err != nil {
			t.Fatalf("lookup %s: %v", f.name, err)
		}
		if fh.FileID != handles[f.name] {
			t.Fatalf("%s: handle changed", f.name)
		}
		if at.Size != uint64(f.size) {
			t.Fatalf("%s: directory server size %d, want %d (writeback lost)",
				f.name, at.Size, f.size)
		}
	}
}
