package proxy_test

import (
	"bytes"
	"testing"

	"slice/internal/client"
	"slice/internal/ensemble"
)

// clientVia mounts a client whose whole request stream passes through
// fleet member i, the way a remote client's does through the gateway it
// dialled — no front ring spreading its flows.
func clientVia(t *testing.T, e *ensemble.Ensemble, i int) *client.Client {
	t.Helper()
	c, err := client.New(client.Config{
		Net:        e.Net,
		Host:       ensemble.HostClient0 + 100 + uint32(i),
		Server:     e.VirtualOf(i),
		Threshold:  e.IOPolicy.Threshold,
		StripeUnit: e.IOPolicy.StripeUnit,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Mount(); err != nil {
		t.Fatal(err)
	}
	return c
}

// stored counts what the data servers hold: storage objects across the
// array and files across the small-file servers.
func stored(e *ensemble.Ensemble) (objects, smallFiles int) {
	for _, n := range e.Storage {
		objects += n.Store().NumObjects()
	}
	for _, s := range e.Small {
		smallFiles += s.Store().NumFiles()
	}
	return objects, smallFiles
}

func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i*7+i>>11)
	}
	return p
}

// TestRemoveAfterRecreateThroughSibling: fleet members share no soft
// state, so a name one member saw bound to a handle can be removed and
// re-created through another without its knowing. A REMOVE it then
// orchestrates must clear the data of the file the name is bound to now —
// not of the handle it remembers, which strands every object of the live
// file for good.
func TestRemoveAfterRecreateThroughSibling(t *testing.T) {
	e := newEnsemble(t, func(c *ensemble.Config) { c.Proxies = 2 })
	x, y := clientVia(t, e, 0), clientVia(t, e, 1)
	const size = 256 << 10 // the small-file region and six stripes

	// A file that stays, so the baseline counts live data on both the
	// storage nodes and the small-file servers.
	keep, _, err := x.Create(x.Root(), "keep", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.WriteFile(keep, pattern(size, 1)); err != nil {
		t.Fatal(err)
	}
	objects0, small0 := stored(e)

	fh, _, err := x.Create(x.Root(), "f", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.WriteFile(fh, pattern(size, 2)); err != nil {
		t.Fatal(err)
	}
	if err := y.Remove(y.Root(), "f"); err != nil {
		t.Fatal(err)
	}
	fh2, _, err := y.Create(y.Root(), "f", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if fh2 == fh {
		t.Fatal("re-created file reused the removed file's handle")
	}
	if err := y.WriteFile(fh2, pattern(size, 3)); err != nil {
		t.Fatal(err)
	}
	if err := x.Remove(x.Root(), "f"); err != nil {
		t.Fatal(err)
	}

	if objects, small := stored(e); objects != objects0 || small != small0 {
		t.Fatalf("after create, remove+re-create through a sibling, remove: %d storage objects and %d small files, want the baseline %d and %d (orphaned data)",
			objects, small, objects0, small0)
	}
}

// TestOverwriteThroughColdMember: a WRITE routed by a µproxy that holds no
// attributes for the file — a fleet member that never saw them, or any
// µproxy after losing its soft state — must not shrink the file to the
// end of that one write.
func TestOverwriteThroughColdMember(t *testing.T) {
	const size = 256 << 10
	for _, tc := range []struct {
		name    string
		proxies int
		// cool returns the member the overwrite goes through, having made
		// sure it holds nothing about the file.
		cool func(e *ensemble.Ensemble) int
	}{
		{"fleet sibling", 4, func(*ensemble.Ensemble) int { return 1 }},
		{"single proxy after flush", 1, func(e *ensemble.Ensemble) int { e.Proxy.FlushSoftState(); return 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnsemble(t, func(c *ensemble.Config) { c.Proxies = tc.proxies })
			w := clientVia(t, e, 0)
			fh, _, err := w.Create(w.Root(), "big", 0o644, true)
			if err != nil {
				t.Fatal(err)
			}
			want := pattern(size, 5)
			if err := w.WriteFile(fh, want); err != nil {
				t.Fatal(err)
			}

			// The overwriting client holds the handle already (no LOOKUP
			// through the cold member warms it first).
			c := clientVia(t, e, tc.cool(e))
			patch := bytes.Repeat([]byte{0xEE}, 512)
			if _, err := c.Write(fh, 0, patch, false); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Commit(fh); err != nil {
				t.Fatal(err)
			}
			copy(want, patch)

			at, err := c.GetAttr(fh)
			if err != nil {
				t.Fatal(err)
			}
			if at.Size != size {
				t.Fatalf("size %d after a 512-byte overwrite at offset 0 of a %d-byte file", at.Size, size)
			}
			// And as the directory server tells it to a µproxy with no
			// cache of its own to overlay.
			for _, p := range e.Proxies {
				p.DropSoftState()
			}
			got, err := w.ReadAll(fh)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != size || !bytes.Equal(got, want) {
				t.Fatalf("read back %d bytes (equal=%v), want %d with the first 512 overwritten", len(got), bytes.Equal(got, want), size)
			}
		})
	}
}
