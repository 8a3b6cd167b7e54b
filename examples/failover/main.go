// Failover: the recovery mechanisms of §2.3 and §3.3.2 in action.
//
//  1. Dataless manager failover: a small-file server crashes and is
//     restarted on a new host from its durable value, its fragment store
//     plus its write-ahead log; file contents survive.
//  2. Coordinator intention recovery: a µproxy "dies" between declaring a
//     remove intention and clearing the data; the coordinator's probe
//     finishes the remove.
//  3. µproxy soft-state loss: all caches and pending records dropped
//     mid-run; clients notice nothing.
package main

import (
	"fmt"
	"log"
	"time"

	"slice/internal/coord"
	"slice/internal/ensemble"
	"slice/internal/netsim"
	"slice/internal/route"
)

func main() {
	e, err := ensemble.New(ensemble.Config{
		StorageNodes:     2,
		DirServers:       2,
		SmallFileServers: 1,
		Coordinator:      true,
		NameKind:         route.MkdirSwitching,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()
	c, err := e.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// ---- 1. Small-file server failover ------------------------------
	fh, _, err := c.Create(c.Root(), "precious.txt", 0o644, true)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.WriteFile(fh, []byte("survives manager failure")); err != nil {
		log.Fatal(err)
	}

	// Crash the manager, then restart it on a new host from what is
	// durable — its write-ahead log and its fragment store — the way a
	// surviving site assumes a failed server's role. The small-file table
	// is rebound, and the client reads on through the µproxy.
	files := e.Small[0].Store().NumFiles()
	ch := e.Chaos()
	if err := ch.Crash(ensemble.RoleSmall, 0); err != nil {
		log.Fatal(err)
	}
	if err := ch.Restart(ensemble.RoleSmall, 0, netsim.Addr{Host: 71, Port: ensemble.ServicePort}); err != nil {
		log.Fatal(err)
	}
	data, err := c.ReadAll(fh)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1. small-file failover to %v: %d files before, %d after recovery; read %q\n",
		e.Small[0].Addr(), files, e.Small[0].Store().NumFiles(), data)

	// ---- 2. Coordinator finishes an abandoned remove ----------------
	victim, _, err := c.Create(c.Root(), "leak.dat", 0o644, true)
	if err != nil {
		log.Fatal(err)
	}
	big := make([]byte, 200*1024)
	if err := c.WriteFile(victim, big); err != nil {
		log.Fatal(err)
	}
	before := e.Storage[0].Store().TotalBytes() + e.Storage[1].Store().TotalBytes()

	// A faulty µproxy declares the remove intention... and dies before
	// clearing the data.
	id, err := e.Coord.Intend(coord.OpRemove, victim, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2. intention %d logged; initiator gone; pending=%d\n",
		id, e.Coord.PendingIntentions())
	finished := e.Coord.CheckIntentions(time.Now().Add(time.Hour)) // probe deadline passes
	after := e.Storage[0].Store().TotalBytes() + e.Storage[1].Store().TotalBytes()
	fmt.Printf("   coordinator finished %d abandoned op(s): storage %d -> %d bytes, pending=%d\n",
		finished, before, after, e.Coord.PendingIntentions())

	// ---- 3. µproxy drops all soft state mid-run ----------------------
	fh2, _, err := c.Create(c.Root(), "during.txt", 0o644, true)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.WriteFile(fh2, []byte("before the flush")); err != nil {
		log.Fatal(err)
	}
	e.Proxy.FlushSoftState()
	data, err = c.ReadAll(fh2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3. after µproxy soft-state flush, client still reads %q\n", data)
	fmt.Println("\nall three recovery paths held.")
}
