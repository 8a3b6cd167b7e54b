//go:build chaos_long

package chaos

// Nightly chaos-matrix scenarios (make nightly-chaos / .github/workflows
// nightly job). The matrix axes arrive via environment:
//
//	CHAOS_TRANSPORT   udp (default) | tcp  — tcp drives the load through
//	                  a record-marked wire gateway, the path real NFS
//	                  clients use
//	CHAOS_REPLICATION 1 (default) | 3      — k-way replica groups
//
// These runs are heavier than the PR-path versions of the same
// scenarios: more ballast, more foreground ops, and a full
// grow -> kill -> shrink cycle, with -count 3 -race in CI.

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"slice/internal/client"
	"slice/internal/ensemble"
	"slice/internal/oncrpc"
	"slice/internal/wire"
	"slice/internal/workload"
)

func matrixTransport() string {
	if t := os.Getenv("CHAOS_TRANSPORT"); t != "" {
		return t
	}
	return "udp"
}

func matrixReplication() int {
	if s := os.Getenv("CHAOS_REPLICATION"); s != "" {
		if k, err := strconv.Atoi(s); err == nil && k > 0 {
			return k
		}
	}
	return 1
}

// matrixEnsemble builds the deployment the matrix axes describe and a
// client over the selected transport.
func matrixEnsemble(t *testing.T, nodes int) (*ensemble.Ensemble, *client.Client) {
	t.Helper()
	k := matrixReplication()
	e := newEnsemble(t, func(cfg *ensemble.Config) {
		cfg.StorageNodes = nodes * k
		cfg.Replication = k
		cfg.LogicalSites = 12
		if matrixTransport() == "tcp" {
			cfg.TCPListen = "127.0.0.1:0"
		}
	})
	var c *client.Client
	if matrixTransport() == "tcp" {
		conn, err := wire.Dial(fmt.Sprintf("127.0.0.1:%d", e.Gateways[0].Port()))
		if err != nil {
			t.Fatalf("dial gateway: %v", err)
		}
		c = client.NewWithConn(conn, client.Config{
			RPC: oncrpc.ClientConfig{Timeout: 250 * time.Millisecond, Retries: 9},
		})
		if err := c.Mount(); err != nil {
			t.Fatalf("mount over tcp: %v", err)
		}
		t.Cleanup(c.Close)
	} else {
		var err error
		c, err = e.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
	}
	return e, c
}

// TestMatrixGrowKillShrinkCycle is the nightly tentpole: under the
// matrix's transport and replication degree, grow the array by one
// stripe class, reboot an incoming node mid-copy, verify the workload
// never failed, then drain the same class back out — a full elastic
// round trip ending fsck-clean.
func TestMatrixGrowKillShrinkCycle(t *testing.T) {
	k := matrixReplication()
	e, c := matrixEnsemble(t, 4)

	if _, err := workload.DD(c, c.Root(), workload.DDConfig{
		Name: "ballast", Bytes: 16 << 20, Write: true,
	}); err != nil {
		t.Fatalf("ballast: %v", err)
	}

	var (
		wg     sync.WaitGroup
		sfsErr error
		stats  workload.SfsStats
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats, sfsErr = workload.Sfs(c, c.Root(), workload.SfsConfig{
			Files: 120, Ops: 3000, Prefix: "matrix-load", Seed: 17,
		})
	}()
	time.Sleep(20 * time.Millisecond)

	add := 2 * k // two stripe classes (k nodes each when replicated)
	growErr := make(chan error, 1)
	baseNodes := 4 * k
	go func() { growErr <- e.Grow(add) }()
	if !WaitFor(30*time.Second, func() bool {
		st := e.RebalanceStatus().State
		return (st == "running" && len(e.Storage) >= baseNodes+add) || st == "done"
	}) {
		t.Fatal("rebalance never started")
	}
	if e.RebalanceStatus().State == "running" {
		if err := rebootStorage(e.Chaos(), baseNodes); err != nil {
			t.Fatalf("restart incoming node: %v", err)
		}
	}
	if err := <-growErr; err != nil {
		t.Fatalf("Grow(%d): %v", add, err)
	}
	wg.Wait()
	if sfsErr != nil {
		t.Fatalf("foreground mix failed during grow: %v", sfsErr)
	}
	if stats.ReadErrs != 0 {
		t.Fatalf("%d foreground reads returned wrong bytes", stats.ReadErrs)
	}
	FsckClean(t, e)

	// Read the ballast back whole before and after draining the class
	// out again.
	if dd, err := workload.DD(c, c.Root(), workload.DDConfig{
		Name: "ballast", Bytes: 16 << 20, Verify: true,
	}); err != nil || dd.Mismatch {
		t.Fatalf("ballast verify after grow: err %v mismatch %v", err, dd.Mismatch)
	}
	if err := e.Shrink(add); err != nil {
		t.Fatalf("Shrink(%d): %v", add, err)
	}
	if dd, err := workload.DD(c, c.Root(), workload.DDConfig{
		Name: "ballast", Bytes: 16 << 20, Verify: true,
	}); err != nil || dd.Mismatch {
		t.Fatalf("ballast verify after shrink: err %v mismatch %v", err, dd.Mismatch)
	}
	FsckClean(t, e)
}

// TestMatrixRepeatedElasticity cycles grow/shrink several times under
// load — topology transitions must compose without leaking pending
// state or corrupting placement.
func TestMatrixRepeatedElasticity(t *testing.T) {
	k := matrixReplication()
	e, c := matrixEnsemble(t, 4)
	if _, err := workload.DD(c, c.Root(), workload.DDConfig{
		Name: "cycle-ballast", Bytes: 4 << 20, Write: true,
	}); err != nil {
		t.Fatalf("ballast: %v", err)
	}
	// Two cycles: each grow takes fresh host-plan slots (drained nodes
	// stay parked), and k=3 must not run into the directory-server
	// host range.
	for cycle := 0; cycle < 2; cycle++ {
		if err := e.Grow(k); err != nil {
			t.Fatalf("cycle %d grow: %v", cycle, err)
		}
		if err := e.Shrink(k); err != nil {
			t.Fatalf("cycle %d shrink: %v", cycle, err)
		}
	}
	if dd, err := workload.DD(c, c.Root(), workload.DDConfig{
		Name: "cycle-ballast", Bytes: 4 << 20, Verify: true,
	}); err != nil || dd.Mismatch {
		t.Fatalf("ballast verify after cycles: err %v mismatch %v", err, dd.Mismatch)
	}
	FsckClean(t, e)
}
