package chaos

import (
	"testing"
	"time"

	"slice/internal/checksum"
	"slice/internal/client"
	"slice/internal/ensemble"
	"slice/internal/fhandle"
)

// proxyFlowOwner finds the fleet member that owns a client's flow for
// fh: probe with the cheapest call on that flow and see whose request
// counter moves. (The hash lives in internal/front; the test goes
// through the data path instead so it keeps working if the keying
// changes.)
func proxyFlowOwner(t *testing.T, e *ensemble.Ensemble, c *client.Client, fh fhandle.Handle) int {
	t.Helper()
	before := make([]uint64, len(e.Proxies))
	for i, p := range e.Proxies {
		before[i] = p.Stats().Requests
	}
	if _, err := c.GetAttr(fh); err != nil {
		t.Fatal(err)
	}
	for i, p := range e.Proxies {
		if p.Stats().Requests > before[i] {
			return i
		}
	}
	t.Fatal("no fleet member carried the probe request")
	return -1
}

// TestProxyKillMidUntar: one member of a two-proxy fleet is killed while
// an untar is streaming through it. The µproxy holds soft state only, so
// nothing needs recovering — the fleet swap remaps the victim's flows
// and every in-flight call reaches the sibling by ordinary
// retransmission. The untar must complete with all acknowledged entries
// present and the namespace fsck-clean.
func TestProxyKillMidUntar(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) { cfg.Proxies = 2 })
	ch := e.Chaos()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	crashAt := make(chan struct{})
	crashed := make(chan struct{})
	var once bool
	done := make(chan struct{})
	var acked []Entry
	var untarErr error
	go func() {
		defer close(done)
		acked, untarErr = Untar(c, c.Root(), UntarConfig{
			Dirs: 16, Files: 48,
			OpBudget: 15 * time.Second,
			OnEntry: func(n int) {
				if n == 12 && !once {
					once = true
					// Pause until the kill lands so a fast machine cannot
					// finish the untar before the fault exists.
					close(crashAt)
					<-crashed
				}
			},
		})
	}()

	<-crashAt
	// Kill in two beats, as a real failure unfolds: the process dies
	// first (Close — requests to it now blackhole), and only once the
	// workload demonstrably hit the corpse does the front's failure
	// detection publish the membership swap (Crash). In-flight calls
	// must ride their retransmissions onto the sibling.
	e.Proxies[1].Close()
	close(crashed)
	for deadline := time.Now().Add(10 * time.Second); c.Retransmissions() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("untar never hit the killed proxy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	must(t, ch.Crash(ensemble.RoleProxy, 1))

	<-done
	if untarErr != nil {
		t.Fatalf("untar did not survive the proxy kill: %v", untarErr)
	}
	if lost := VerifyAcked(c, 10*time.Second, acked); len(lost) != 0 {
		t.Fatalf("%d acknowledged entries lost across the proxy kill: %v", len(lost), lost)
	}
	if c.Retransmissions() == 0 {
		t.Fatal("workload saw no retransmissions (kill window not exercised)")
	}
	if e.Proxies[0].Stats().Requests == 0 {
		t.Fatal("surviving proxy carried no traffic")
	}
	FsckClean(t, e)
}

// TestProxyKillUnderWindowedBulkRead: the fleet member owning a bulk
// flow is killed in the middle of a windowed (readahead-pipelined) read
// of a committed striped file. The read must fail over mid-window and
// still return exactly the committed bytes — equal to what a serial
// reader sees — with the namespace fsck-clean.
func TestProxyKillUnderWindowedBulkRead(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) {
		cfg.Proxies = 2
		cfg.StorageNodes = 4
	})
	ch := e.Chaos()
	c, err := e.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fh, _, err := c.Create(c.Root(), "fleet-bulk", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1536*1024)
	for i := range data {
		data[i] = byte(i*2654435761 + i>>11)
	}
	if err := c.WriteFile(fh, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(fh); err != nil {
		t.Fatal(err)
	}

	owner := proxyFlowOwner(t, e, c, fh)
	retrans := c.Retransmissions()

	// Same two-beat kill as the untar test, but against the one proxy
	// this flow hashes to — every chunk of the windowed read is pointed
	// at the corpse until the swap publishes, so the fan-out itself must
	// re-resolve per transmission to survive.
	e.Proxies[owner].Close()
	type readResult struct {
		got []byte
		err error
	}
	res := make(chan readResult, 1)
	go func() {
		got, err := c.ReadAll(fh)
		res <- readResult{got, err}
	}()
	time.Sleep(10 * time.Millisecond)
	must(t, ch.Crash(ensemble.RoleProxy, owner))

	r := <-res
	if r.err != nil {
		t.Fatalf("windowed read did not survive the proxy kill: %v", r.err)
	}
	want := checksum.Sum(data)
	if len(r.got) != len(data) || checksum.Sum(r.got) != want {
		t.Fatalf("windowed read under kill: %d bytes sum %#x, want %d bytes sum %#x",
			len(r.got), checksum.Sum(r.got), len(data), want)
	}
	if c.Retransmissions() == retrans {
		t.Fatal("read completed without retransmission (kill window not exercised)")
	}

	// Re-reading after the kill settles must agree with the bytes read
	// through the fault window, on both reader paths.
	VerifyBytes(t, e, c, fh, data)
	FsckClean(t, e)
}
