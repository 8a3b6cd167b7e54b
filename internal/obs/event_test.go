package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestRecorderRing: a ring keeps its latest RingSize events, in the order
// they were written, each whole, through several wraps.
func TestRecorderRing(t *testing.T) {
	r := new(Recorder)
	if n := len(r.Events()); n != 0 {
		t.Fatalf("a fresh ring holds %d events", n)
	}
	const total = 3*RingSize + 5
	for i := 0; i < total; i++ {
		r.Record(CallID{Host: 1, Port: 2, Step: uint16(i), Xid: uint32(i)}, KindAppend, uint8(i), int64(i), uint64(i))
	}
	evs := r.Events()
	if len(evs) != RingSize {
		t.Fatalf("%d events after %d writes, want the latest %d", len(evs), total, RingSize)
	}
	for j, ev := range evs {
		i := total - RingSize + j
		want := Event{CallID: CallID{Host: 1, Port: 2, Step: uint16(i), Xid: uint32(i)},
			Kind: KindAppend, Layer: uint8(i), At: int64(i), Value: uint64(i)}
		ev.seq = 0
		if ev != want {
			t.Fatalf("event %d: %+v, want %+v", j, ev, want)
		}
	}
}

// TestRecorderConcurrentNoTornEvent: writers on several goroutines wrap
// the ring many times while a reader reads it; every event read is one
// some writer wrote whole — its words all derive from one number — and
// each writer's events come back in the order it wrote them.
func TestRecorderConcurrentNoTornEvent(t *testing.T) {
	r := new(Recorder)
	const writers, per = 4, 4 * RingSize
	check := func(evs []Event) {
		last := map[uint32]int64{}
		for _, ev := range evs {
			w, i := ev.Host, ev.At
			if ev.Xid != uint32(i) || ev.Port != uint16(i) || ev.Step != uint16(w) || ev.Value != uint64(i)*3+uint64(w) ||
				ev.Kind != KindSync || ev.Layer != uint8(w) {
				t.Fatalf("torn event: %+v", ev)
			}
			if prev, ok := last[w]; ok && i <= prev {
				t.Fatalf("writer %d's event %d read after its event %d", w, i, prev)
			}
			last[w] = i
		}
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				check(r.Events())
			}
		}
	}()
	for w := uint32(1); w <= writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= per; i++ {
				r.Record(CallID{Host: w, Port: uint16(i), Step: uint16(w), Xid: uint32(i)}, KindSync, uint8(w), i, uint64(i)*3+uint64(w))
			}
		}()
	}
	wg.Wait()
	close(done)
	evs := r.Events()
	if len(evs) != RingSize {
		t.Fatalf("%d events after the writers, want %d", len(evs), RingSize)
	}
	check(evs)
}

// TestStitchJoinsRingsByCall: the collector joins the events of one call
// — source and xid, every step — from every registry's ring in time
// order, newest call first, and a text block reads them back, the reply's
// hop split into server and wire time.
func TestStitchJoinsRingsByCall(t *testing.T) {
	c := NewCollector()
	up, dir := NewRegistry("uproxy"), NewRegistry("dirsrv[1]")
	c.AddRegistry(up)
	c.AddRegistry(dir)
	create := CallID{Host: 200, Port: 900, Xid: 81} // in the sample
	peer := create
	peer.Step = 0x0103
	up.Record(create, KindRecv, 8, 100, progNFS)
	up.Record(create, KindForward, uint8(HopDirsrv), 200, 0)
	dir.ObserveRPC(create, progNFS, 8, 300, 700)
	dir.Record(create, KindAppend, 0, 400, 96)
	dir.Record(peer, KindSync, 0, 500, 0)
	up.Record(create, KindReply, uint8(HopDirsrv), 900, 400)
	up.Record(create, KindEnd, 0, 1000, 900)
	later := CallID{Host: 200, Port: 900, Xid: 82}
	up.Record(later, KindRecv, 3, 2000, progNFS)

	calls := c.Stitch(0)
	if len(calls) != 2 || calls[0][0].Xid != 82 || calls[1][0].Xid != 81 {
		t.Fatalf("stitched %+v, want the call of xid 82, then 81", calls)
	}
	var got []string
	for _, ev := range calls[1] {
		got = append(got, ev.Component+" "+ev.Kind.String())
	}
	want := "uproxy recv,uproxy forward,dirsrv[1] begin,dirsrv[1] append,dirsrv[1] sync,dirsrv[1] done,uproxy reply,uproxy end"
	if strings.Join(got, ",") != want {
		t.Fatalf("events in order %q, want %q", strings.Join(got, ","), want)
	}
	if calls[1][4].Step != 0x0103 {
		t.Errorf("the peer step's event has step %#x", calls[1][4].Step)
	}
	if n := len(c.Stitch(1)); n != 1 {
		t.Errorf("Stitch(1) returned %d calls", n)
	}

	var text bytes.Buffer
	calls[1].WriteText(&text)
	for _, s := range []string{"xid 0x51 nfs.create 900ns", "begin nfs.create", "append 96 B", "step 0x0103",
		"reply dirsrv 700ns (server 400ns, wire+queue 300ns)"} {
		if !strings.Contains(text.String(), s) {
			t.Errorf("trace text lacks %q:\n%s", s, text.String())
		}
	}

	whole := c.StitchJSON(0, 1<<20)
	var back []Trace
	if err := json.Unmarshal(whole, &back); err != nil || len(back) != 2 {
		t.Fatalf("StitchJSON: %d calls, %v", len(back), err)
	}
	if err := json.Unmarshal(c.StitchJSON(0, len(whole)-1), &back); err != nil || len(back) != 1 || back[0][0].Xid != 82 {
		t.Fatalf("StitchJSON under a limit sent %+v, %v; want the newest call alone", back, err)
	}
}

// TestSampleDoesNotAlias: a client's xids run in sequence, and a workload
// drives them through a fixed cycle of operations. Over 64 Ki consecutive
// xids from several starts, in cycles of period 2, 3, 4 and 8, each
// position of the cycle — each op class — is timed within ±10 % of 1 in
// 16, where a sample by the xid's low bits would time one class of a
// period-2 cycle at 1 in 8 and the other never.
func TestSampleDoesNotAlias(t *testing.T) {
	const n = 1 << 16
	for _, start := range []uint32{0, 1, 0x7FFFFFF0, 0xDEADBEEF, 0xFFFFFF00} {
		for _, period := range []uint32{2, 3, 4, 8} {
			hits := make([]int, period)
			for i := uint32(0); i < n; i++ {
				if Sampled(start + i) {
					hits[i%period]++
				}
			}
			want := float64(n) / float64(period) / 16
			for class, h := range hits {
				if r := float64(h) / want; r < 0.9 || r > 1.1 {
					t.Errorf("start %#x, period %d: class %d timed %d times, %.3f× its share of 1 in 16", start, period, class, h, r)
				}
			}
		}
	}
}
