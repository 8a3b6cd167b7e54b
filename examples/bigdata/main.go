// Bigdata: high-bandwidth I/O on large files — the workload of Table 2.
// Demonstrates striped placement across the storage array, 2-way replica
// groups for fault tolerance, and reads surviving the loss of a replica
// node, disk and all.
package main

import (
	"bytes"
	"fmt"
	"log"

	"slice/internal/ensemble"
	"slice/internal/route"
	"slice/internal/workload"
)

func main() {
	// Unreplicated ensemble first: watch a 2MB file decluster.
	e, err := ensemble.New(ensemble.Config{
		StorageNodes:     8,
		DirServers:       1,
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

	const size = 2 << 20
	if _, err := workload.DD(c, c.Root(), workload.DDConfig{
		Name: "dataset.bin", Bytes: size, Write: true,
	}); err != nil {
		log.Fatal(err)
	}
	rd, err := workload.DD(c, c.Root(), workload.DDConfig{
		Name: "dataset.bin", Bytes: size, Verify: true,
	})
	if err != nil || rd.Mismatch {
		log.Fatalf("verify failed: %+v %v", rd, err)
	}
	fmt.Printf("wrote and verified %d MB, striped over the array:\n", size>>20)
	for i, n := range e.Storage {
		fmt.Printf("  node %d: %4d KB\n", i, n.Store().PhysicalBytes()/1024)
	}

	// Replicated ensemble: two groups of two members, so every block
	// lives on two nodes and losing a whole node does not lose data.
	em, err := ensemble.New(ensemble.Config{
		StorageNodes:     4,
		DirServers:       1,
		SmallFileServers: 1,
		Coordinator:      true,
		NameKind:         route.MkdirSwitching,
		Replication:      2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer em.Close()
	cm, err := em.NewClient()
	if err != nil {
		log.Fatal(err)
	}
	defer cm.Close()

	fh, _, err := cm.Create(cm.Root(), "critical.db", 0o644, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncritical.db on %d replica groups of %d members\n", em.Replicas.NumGroups(), em.Replicas.Degree())
	payload := bytes.Repeat([]byte("durable"), 64*1024) // 448 KB
	if err := cm.WriteFile(fh, payload); err != nil {
		log.Fatal(err)
	}

	// Kill group 0's primary together with its disk: its mirror is
	// promoted, and reads of the group's stripes go there.
	fmt.Println("killing storage node 0, group 0's primary...")
	em.Chaos().KillReplica(0)
	got, err := cm.ReadAll(fh)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		log.Fatal("replicated read returned wrong data after a member was lost")
	}
	fmt.Printf("read back %d bytes intact from the surviving members\n", len(got))
}
