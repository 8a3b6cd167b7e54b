package route_test

import (
	"testing"

	"slice/internal/ensemble"
	"slice/internal/netsim"
	"slice/internal/route"
)

// TestRebindKeepsSiteIdentity: failing a server over to another address
// (Physical → replace one entry → Swap, what ensemble.Chaos does) must
// change no key's logical site and must move exactly the failed
// server's keys to the new address — for every table an ensemble
// builds. A site's state (a directory server's journal and the Site in
// the handles it minted, a small-file server's journal and fragments) follows
// the site index, not the address.
func TestRebindKeepsSiteIdentity(t *testing.T) {
	e, err := ensemble.New(ensemble.Config{
		StorageNodes: 4, LogicalSites: 12, DirServers: 2, SmallFileServers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tables := map[string]*route.Table{
		"directory":  e.DirTable,
		"small-file": e.SmallTable,
		"storage":    e.StorageTable,
	}
	for name, tbl := range tables {
		const keys = 100000
		site := make([]uint32, keys)
		addr := make([]netsim.Addr, keys)
		for k := range site {
			key := uint64(k) * 0x9E3779B97F4A7C15
			site[k] = tbl.Site(key)
			addr[k], _ = tbl.Route(key)
		}
		phys := tbl.Physical()
		old, fresh := phys[1], netsim.Addr{Host: 250, Port: 2049}
		for i, a := range phys {
			if a == old {
				phys[i] = fresh
			}
		}
		tbl.Swap(phys)
		moved := 0
		for k := range site {
			key := uint64(k) * 0x9E3779B97F4A7C15
			if tbl.Site(key) != site[k] {
				moved++
				continue
			}
			want := addr[k]
			if want == old {
				want = fresh
			}
			if got, _ := tbl.Route(key); got != want {
				t.Fatalf("%s table: key %#x routes to %v after the rebind, want %v", name, key, got, want)
			}
		}
		if moved != 0 {
			t.Errorf("%s table: a same-index address rebind moved %d of %d keys to another site", name, moved, keys)
		}
	}
}
