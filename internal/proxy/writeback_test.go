package proxy_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"slice/internal/client"
	"slice/internal/ensemble"
	"slice/internal/fhandle"
)

// The µproxy's attribute write-back (§4.1): a size that routed I/O grew
// reaches the directory server on eviction, after a failed push, and on
// the periodic timer. Each test reads the directory server's own view,
// past the µproxy and its cache, through a client of its own aimed at the
// one directory server.

// newDirReader returns a client that calls the ensemble's only directory
// server directly.
func newDirReader(t *testing.T, e *ensemble.Ensemble) *client.Client {
	t.Helper()
	if len(e.Dirs) != 1 {
		t.Fatalf("the reader needs a single directory server, have %d", len(e.Dirs))
	}
	c, err := client.New(client.Config{Net: e.Net, Host: 250, Server: e.Dirs[0].Addr(), Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// dirSize is fh's size as the directory server has it.
func dirSize(t *testing.T, dir *client.Client, fh fhandle.Handle) uint64 {
	t.Helper()
	at, err := dir.GetAttr(fh)
	if err != nil {
		t.Fatalf("directory server GETATTR: %v", err)
	}
	return at.Size
}

// writeDirty creates name and writes size bytes to it unstably, leaving
// the µproxy holding a dirty attribute entry the directory server has
// not heard of.
func writeDirty(t *testing.T, c *client.Client, name string, size int) fhandle.Handle {
	t.Helper()
	fh, _, err := c.Create(c.Root(), name, 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fh, 0, bytes.Repeat([]byte("w"), size), false); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(fh); err != nil {
		t.Fatal(err)
	}
	return fh
}

// TestEvictedDirtySizeReachesDirServer: more dirty files than the
// 4 096-entry attribute cache holds push the least recently used out of
// it, and each evicted entry's size is written back as it goes. The
// µproxy then drops its soft state — every resident dirty entry is lost,
// as §4.1 permits — and every file that had been evicted still has its
// size at the directory server.
func TestEvictedDirtySizeReachesDirServer(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) { cfg.DirServers = 1 })
	c, err := e.NewSerialClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir := newDirReader(t, e)

	const files = 4096 + 256
	fhs := make([]fhandle.Handle, files)
	for i := range fhs {
		fhs[i] = writeDirty(t, c, fmt.Sprintf("f%04d", i), 1+i%100)
	}
	var evicted []int
	for i, fh := range fhs {
		if ok, _ := e.Proxy.CachedAttr(fh); !ok {
			evicted = append(evicted, i)
		}
	}
	if len(evicted) < files-4096 {
		t.Fatalf("%d of %d files left the cache, want at least %d", len(evicted), files, files-4096)
	}
	e.Proxy.DropSoftState()
	e.Proxy.Close() // waits for the write-backs the evictions started
	for _, i := range evicted {
		if got, want := dirSize(t, dir, fhs[i]), uint64(1+i%100); got != want {
			t.Fatalf("evicted file %d: directory server size %d, want %d", i, got, want)
		}
	}
}

// TestFailedPushStaysDirty: a write-back that cannot reach the directory
// server leaves the entry dirty, and the next write-back after the
// partition heals delivers the size.
func TestFailedPushStaysDirty(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) { cfg.DirServers = 1 })
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir := newDirReader(t, e)
	fh := writeDirty(t, c, "partitioned", 4321)

	e.Net.IsolateHost(ensemble.HostDir0)
	e.Proxy.WritebackAttrs() // every transmission is lost
	e.Net.RejoinHost(ensemble.HostDir0)
	if got := dirSize(t, dir, fh); got != 0 {
		t.Fatalf("directory server has size %d before any push landed", got)
	}
	e.Proxy.WritebackAttrs()
	if got := dirSize(t, dir, fh); got != 4321 {
		t.Fatalf("directory server size %d after healing, want 4321", got)
	}
}

// TestWritebackTimerPushesDirtySize: with WritebackInterval set, a dirty
// size reaches the directory server with no COMMIT, eviction or explicit
// write-back.
func TestWritebackTimerPushesDirtySize(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) {
		cfg.DirServers = 1
		cfg.WritebackInterval = 10 * time.Millisecond
	})
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir := newDirReader(t, e)
	fh := writeDirty(t, c, "timed", 777)

	deadline := time.Now().Add(5 * time.Second)
	for dirSize(t, dir, fh) != 777 {
		if time.Now().After(deadline) {
			t.Fatal("the write-back timer never pushed the dirty size")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
