package ensemble

import (
	"fmt"
	"testing"

	"slice/internal/allocs"
	"slice/internal/attr"
	"slice/internal/client"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
)

// allocsOver returns the mean allocations of op from client through the
// µproxy to its server and back, after oncrpc.DRCSize warm-up calls — so
// a non-idempotent op is measured once its server's duplicate-request
// cache has wrapped and retains each reply in the buffer of a slot it
// evicts, as in any run longer than the cache — and the same for a NULL
// call, which takes the same path and draws from the same pools. Without
// the race detector the NULL call itself must allocate nothing.
func allocsOver(t *testing.T, c *client.Client, op func() error) (got, null float64) {
	t.Helper()
	call := func(f func() error) func() {
		return func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < oncrpc.DRCSize; i++ {
		call(op)()
	}
	null = allocs.PerCall(1000, call(c.Null))
	if !allocs.Race && null > allocs.Slack {
		t.Fatalf("a NULL call through the µproxy allocates %.2f times", null)
	}
	return allocs.PerCall(1000, call(op)), null
}

// TestNameOpsAllocateNothing: GETATTR, ACCESS, SETATTR of times only and
// LOOKUP, of a name that is bound and of one that is not, allocate
// nothing from the client through the µproxy to the directory server and
// back — arguments and results on the stack at every layer, encoders
// recycled, a failed status preallocated, a retained reply in recycled
// memory, and a LOOKUP's name read in place by the µproxy and by the
// directory server alike.
func TestNameOpsAllocateNothing(t *testing.T) {
	e := newTest(t, nil)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir := c.Root()
	fh, _, err := c.Create(dir, "present", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	var now attr.Time
	for _, op := range []struct {
		name  string
		do    func() error
		limit float64
	}{
		{"GETATTR", func() error { _, err := c.GetAttr(fh); return err }, 0},
		{"ACCESS", func() error { _, err := c.Access(fh, nfsproto.AccessRead); return err }, 0},
		{"SETATTR of times", func() error {
			now.Nsec++
			_, err := c.SetAttr(fh, attr.SetAttr{SetAtime: true, Atime: now, SetMtime: true, Mtime: now})
			return err
		}, 0},
		{"LOOKUP of a bound name", func() error { _, _, err := c.Lookup(dir, "present"); return err }, 0},
		{"LOOKUP of an unbound name", func() error {
			if _, _, err := c.Lookup(dir, "absent"); nfsproto.StatusOf(err) != nfsproto.ErrNoEnt {
				return fmt.Errorf("lookup of an absent name: %v", err)
			}
			return nil
		}, 0},
	} {
		got, null := allocsOver(t, c, op.do)
		t.Logf("%s: %.2f allocations, a NULL call %.2f", op.name, got, null)
		if got-null > op.limit+allocs.Slack {
			t.Errorf("%s allocates %.2f times, a NULL call %.2f: want at most %v more", op.name, got, null, op.limit)
		}
	}
}

// TestCreateAllocatesItsStateOnly: a CREATE allocates what it adds and
// little else: the directory server's attribute cell, name cell, the hash
// chain that holds it and the name it stores, and the µproxy's
// attribute-cache entry for the new file — five objects, and one more of
// headroom for the maps and directory list the new entries grow. The
// reply it retains for retransmissions reuses an evicted slot's buffer.
func TestCreateAllocatesItsStateOnly(t *testing.T) {
	e := newTest(t, nil)
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The names are made before the measured calls: a caller's name is
	// not the RPC path's allocation.
	names := make([]string, oncrpc.DRCSize+1+1000)
	for i := range names {
		names[i] = fmt.Sprintf("f%07d", i)
	}
	next := 0
	create := func() error {
		_, _, err := c.Create(c.Root(), names[next], 0o644, true)
		next++
		return err
	}
	got, null := allocsOver(t, c, create)
	t.Logf("CREATE: %.2f allocations, a NULL call %.2f", got, null)
	if limit := 6.0; got-null > limit+allocs.Slack {
		t.Fatalf("a CREATE allocates %.2f times, a NULL call %.2f: want at most %v more", got, null, limit)
	}
}
