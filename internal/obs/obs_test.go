package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the power-of-two bucket layout: bucket 0
// holds only zero, bucket i holds [2^(i-1), 2^i).
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 20, 21},
		{1<<20 - 1, 20},
		{1 << 62, NumBuckets - 1}, // clamped into the last bucket
		{^uint64(0), NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Boundary consistency: every bucket's upper bound lands in that
	// bucket, and upper+1 lands in the next.
	for i := 1; i < NumBuckets-1; i++ {
		up := BucketUpper(i)
		if got := bucketIndex(up); got != i {
			t.Errorf("BucketUpper(%d)=%d maps to bucket %d", i, up, got)
		}
		if got := bucketIndex(up + 1); got != i+1 {
			t.Errorf("BucketUpper(%d)+1 maps to bucket %d, want %d", i, got, i+1)
		}
	}
}

// TestPercentiles checks percentile extraction on a known distribution.
func TestPercentiles(t *testing.T) {
	var h Histogram
	if got := h.Snapshot(); got.Percentile(0.5) != 0 || got.Max() != 0 {
		t.Fatalf("empty histogram: p50=%d max=%d, want 0", got.Percentile(0.5), got.Max())
	}

	// 90 samples in bucket 10 ([512,1024)), 9 in bucket 14, 1 in bucket 20.
	for i := 0; i < 90; i++ {
		h.Record(600)
	}
	for i := 0; i < 9; i++ {
		h.Record(10_000)
	}
	h.Record(1_000_000)

	s := h.Snapshot()
	if s.Count() != 100 {
		t.Fatalf("count = %d, want 100", s.Count())
	}
	if got, want := s.Percentile(0.50), BucketUpper(10); got != want {
		t.Errorf("p50 = %d, want %d", got, want)
	}
	if got, want := s.Percentile(0.90), BucketUpper(10); got != want {
		t.Errorf("p90 = %d, want %d (rank 90 is the last sample of bucket 10)", got, want)
	}
	if got, want := s.Percentile(0.95), BucketUpper(14); got != want {
		t.Errorf("p95 = %d, want %d", got, want)
	}
	if got, want := s.Percentile(0.99), BucketUpper(14); got != want {
		t.Errorf("p99 = %d, want %d (rank 99 is the last bucket-14 sample)", got, want)
	}
	if got, want := s.Percentile(1.0), BucketUpper(20); got != want {
		t.Errorf("p100 = %d, want %d", got, want)
	}
	if got, want := s.Max(), BucketUpper(20); got != want {
		t.Errorf("max = %d, want %d", got, want)
	}
	if mean := s.Mean(); mean <= 0 {
		t.Errorf("mean = %v, want > 0", mean)
	}
}

// TestMerge checks that merged snapshots equal recording into one.
func TestMerge(t *testing.T) {
	var a, b, both Histogram
	vals := []uint64{0, 1, 5, 100, 5000, 1 << 30}
	for i, v := range vals {
		both.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	sa := a.Snapshot()
	sa.Merge(b.Snapshot())
	if sa != both.Snapshot() {
		t.Fatalf("merged snapshot differs from combined recording:\n%v\n%v", sa, both.Snapshot())
	}
}

// TestConcurrentRecording hammers one histogram from many goroutines and
// checks no samples are lost (run under -race by `make check`).
func TestConcurrentRecording(t *testing.T) {
	const (
		goroutines = 8
		perG       = 20_000
	)
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Record(uint64(g*perG + i))
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
}

func TestHistJSONRoundTrip(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 3, 900, 1 << 33} {
		h.Record(v)
	}
	s := h.Snapshot()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back HistSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip mismatch: %v != %v", back, s)
	}
}

func TestRegistryAndCollector(t *testing.T) {
	r1 := NewRegistry("dirsrv[0]")
	r2 := NewRegistry("dirsrv[1]")
	r1.Hist("nfs.lookup").Record(1000)
	r1.Hist("nfs.lookup").Record(2000)
	r2.Hist("nfs.lookup").Record(4000)

	c := NewCollector()
	c.AddRegistry(r1)
	c.AddRegistry(r2)

	snap := c.Snapshot()
	merged := snap.MergeOpClass("nfs.lookup")
	if merged.Count() != 3 {
		t.Fatalf("merged count = %d, want 3", merged.Count())
	}

	// Same-name registration replaces (restart path).
	r1b := NewRegistry("dirsrv[0]")
	r1b.Hist("nfs.lookup").Record(8000)
	c.AddRegistry(r1b)
	if got := c.Snapshot().MergeOpClass("nfs.lookup").Count(); got != 2 {
		t.Fatalf("after replace, merged count = %d, want 2", got)
	}

	var buf bytes.Buffer
	c.WriteText(&buf)
	if !strings.Contains(buf.String(), "dirsrv[1] nfs.lookup count=1") {
		t.Fatalf("text exposition missing dirsrv[1] line:\n%s", buf.String())
	}

	// JSON snapshot decodes back into a ClusterSnapshot.
	var back ClusterSnapshot
	if err := json.Unmarshal(c.SnapshotJSON(), &back); err != nil {
		t.Fatal(err)
	}
	if _, n := back.MergeRole("dirsrv[1]", "dirsrv[1]"); n != 1 {
		t.Fatal("decoded snapshot missing dirsrv[1]")
	}
}

func TestMergeRole(t *testing.T) {
	c := NewCollector()
	p0 := NewRegistry("uproxy")
	p1 := NewRegistry("uproxy[1]")
	d := NewRegistry("dirsrv[0]")
	p0.Hist("e2e.nfs.lookup").Record(1000)
	p0.Hist("e2e.nfs.lookup").Record(2000)
	p1.Hist("e2e.nfs.lookup").Record(4000)
	p1.Hist("e2e.nfs.create").Record(4000)
	d.Hist("e2e.nfs.lookup").Record(8000) // other role: must not leak in
	c.AddRegistry(p0)
	c.AddRegistry(p1)
	c.AddRegistry(d)

	fleet, n := c.Snapshot().MergeRole("uproxy", "uproxy(fleet)")
	if n != 2 {
		t.Fatalf("merged %d instances, want 2", n)
	}
	if fleet.Component != "uproxy(fleet)" {
		t.Fatalf("aggregate named %q", fleet.Component)
	}
	if got := fleet.Hists["e2e.nfs.lookup"].Count(); got != 3 {
		t.Fatalf("aggregate lookup count = %d, want 3 (dirsrv leaked in?)", got)
	}
	if got := fleet.Hists["e2e.nfs.create"].Count(); got != 1 {
		t.Fatalf("aggregate create count = %d, want 1", got)
	}
}

// TestObserveRPCTakesNoLock: once an op class has been served, recording
// another call of it allocates nothing and never takes the registry's
// lock — the test holds the lock while it records — and the calls land
// in the histogram Snapshot names by op class.
func TestObserveRPCTakesNoLock(t *testing.T) {
	r := NewRegistry("dirsrv[0]")
	const lookup, create = 3, 8
	r.ObserveRPC(CallID{}, progNFS, lookup, 0, 100)
	r.ObserveRPC(CallID{}, progNFS, create, 0, 100)
	if n := testing.AllocsPerRun(100, func() { r.ObserveRPC(CallID{}, progNFS, lookup, 0, 100) }); n != 0 {
		t.Errorf("ObserveRPC allocates %.1f times a call after the first", n)
	}

	r.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			r.ObserveRPC(CallID{}, progNFS, lookup, 0, 100)
			r.ObserveRPC(CallID{}, progNFS, create, 0, 100)
		}
	}()
	select {
	case <-done:
		r.mu.Unlock()
	case <-time.After(10 * time.Second):
		r.mu.Unlock()
		<-done
		t.Fatal("ObserveRPC waited on the registry's lock")
	}

	snap := r.Snapshot()
	for name, want := range map[string]uint64{"nfs.lookup": 1 + 101 + 10, "nfs.create": 1 + 10} {
		if got := snap.Hists[name].Count(); got != want {
			t.Errorf("%s: %d samples, want %d", name, got, want)
		}
	}
	if len(snap.Hists) != 2 {
		t.Errorf("snapshot names %d histograms, want 2: %v", len(snap.Hists), snap.Hists)
	}
}

// TestObserveRPCConcurrentClasses: goroutines serving op classes the
// table does not hold yet, at once, each find the one histogram of the
// class, and every call lands in it.
func TestObserveRPCConcurrentClasses(t *testing.T) {
	r := NewRegistry("dirsrv[0]")
	const workers, procs, rounds = 4, 22, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for proc := uint32(0); proc < procs; proc++ {
					r.ObserveRPC(CallID{}, progNFS, (proc+uint32(w))%procs, 0, 100)
				}
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if len(snap.Hists) != procs {
		t.Errorf("snapshot names %d histograms, want %d", len(snap.Hists), procs)
	}
	for proc := uint32(0); proc < procs; proc++ {
		if got := snap.Hists[OpName(progNFS, proc)].Count(); got != workers*rounds {
			t.Errorf("%s: %d samples, want %d", OpName(progNFS, proc), got, workers*rounds)
		}
	}
}
