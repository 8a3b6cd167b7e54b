// Failover: the recovery mechanisms of §2.3 and §3.3.2 in action.
//
//  1. Dataless manager failover: a small-file server is rebuilt from its
//     backing storage object plus its write-ahead log; file contents
//     survive.
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
	"slice/internal/fhandle"
	"slice/internal/route"
	"slice/internal/smallfile"
	"slice/internal/wal"
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

	// Simulate failover: rebuild the manager's state from its (durable)
	// log and the shared backing object, the way a surviving site would
	// assume a failed server's role.
	old := e.Small[0].Store()
	crashedLog, err := wal.Open(e.SmallLogs[0].CrashCopy())
	if err != nil {
		log.Fatal(err)
	}
	rebuilt := smallfile.NewStore(e.Storage[0].Store(), smallfile.BackingID(0), crashedLog)
	if err := rebuilt.Recover(crashedLog); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 64)
	n, _, err := rebuilt.Read(fh, 0, buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1. small-file failover: %d files before, %d after recovery; read %q\n",
		old.NumFiles(), rebuilt.NumFiles(), buf[:n])

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
	data, err := c.ReadAll(fh2)
	if err != nil {
		log.Fatal(err)
	}
	var zero fhandle.Handle
	_ = zero
	fmt.Printf("3. after µproxy soft-state flush, client still reads %q\n", data)
	fmt.Println("\nall three recovery paths held.")
}
