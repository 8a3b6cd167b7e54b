package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"slice/internal/netsim"
	"slice/internal/oncrpc"
)

// The traced pass records spans from outside the program: a root
// "client.op" around each client call (lane.begin/end) and a child
// "client.rpc" per transmission, taken at the oncrpc.Conn seam — send to
// the reply that carries the same xid. Spans inside the program are a
// later issue.

// span is one traced interval. Times are nanoseconds since the pass's
// trace epoch. A client.op span has Parent 0; a client.rpc span's Parent
// is the ID of the op that was open when it was first sent (readahead
// and write-behind RPCs can outlive that op).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Xid    uint32 `json:"xid,omitempty"`
}

// maxLaneSpans bounds each lane's span buffer. When it fills, the lane
// halves its sampling rate — keeping the ops whose index is a multiple
// of the new stride — so the kept spans stay a uniform 1-in-N sample of
// the whole pass.
const maxLaneSpans = 1 << 15

// openRPC is an RPC sent and not yet answered.
type openRPC struct {
	first int64   // first transmission
	retx  []int64 // later transmissions of the same xid
	op    uint64  // op open at first transmission
}

// laneTrace is one lane's trace state. The op side (beginOp/endOp) runs
// on the lane's goroutine; the Conn side runs on the RPC client's sender
// and receiver goroutines, so everything shared sits under mu.
type laneTrace struct {
	lane  int
	epoch time.Time

	mu       sync.Mutex
	open     map[uint32]*openRPC
	busyFrom int64 // start of the current ≥1-RPC-outstanding interval
	busyNS   int64 // closed outstanding time so far
	sent     uint64
	rtts     []uint32 // first send → reply, ns
	nextRPC  uint64

	opIndex uint64
	firstOp uint64 // ops before this ID were the warm-up's
	opID    uint64
	opFrom  int64
	opBusy  int64 // busyNS (open interval included) at beginOp
	selfNS  int64 // Σ over ops of time with no RPC outstanding

	stride uint64
	spans  []span
}

func newLaneTrace(lane int) *laneTrace {
	return &laneTrace{lane: lane, epoch: time.Now(), open: make(map[uint32]*openRPC), stride: 1}
}

func (t *laneTrace) now() int64 { return int64(time.Since(t.epoch)) }

// busyAt returns the lane's total RPC-outstanding time up to now. Caller
// holds mu.
func (t *laneTrace) busyAt(now int64) int64 {
	if len(t.open) > 0 {
		return t.busyNS + now - t.busyFrom
	}
	return t.busyNS
}

// sampled reports whether op's spans are kept: not the warm-up's (whose
// readahead and write-behind RPCs can still complete after reset), and
// only every stride-th op once the buffer has filled.
func (t *laneTrace) sampled(op uint64) bool {
	return op >= t.firstOp && (op&0xFFFFFFFFFFFF)%t.stride == 0
}

// add appends a span, thinning the buffer when it is full. Caller holds mu.
func (t *laneTrace) add(s span) {
	if len(t.spans) >= maxLaneSpans {
		t.stride *= 2
		kept := t.spans[:0]
		for _, old := range t.spans {
			if t.sampled(old.Op) {
				kept = append(kept, old)
			}
		}
		t.spans = kept
		if !t.sampled(s.Op) {
			return
		}
	}
	t.spans = append(t.spans, s)
}

func (t *laneTrace) beginOp() {
	now := t.now()
	t.mu.Lock()
	t.opIndex++
	t.opID = uint64(t.lane+1)<<48 | t.opIndex
	t.opFrom = now
	t.opBusy = t.busyAt(now)
	t.mu.Unlock()
}

func (t *laneTrace) endOp() {
	now := t.now()
	t.mu.Lock()
	t.selfNS += (now - t.opFrom) - (t.busyAt(now) - t.opBusy)
	if t.sampled(t.opID) {
		t.add(span{Name: "client.op", ID: t.opID, Op: t.opID, Start: t.opFrom, End: now})
	}
	t.mu.Unlock()
}

// reset drops what the warm-up recorded; RPCs still outstanding stay.
func (t *laneTrace) reset() {
	t.mu.Lock()
	t.sent, t.selfNS, t.rtts, t.spans, t.stride = 0, 0, t.rtts[:0], t.spans[:0], 1
	t.firstOp = uint64(t.lane+1)<<48 | (t.opIndex + 1)
	t.mu.Unlock()
}

func (t *laneTrace) sends() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sent
}

// tracedConn wraps the Conn handed to client.NewWithConn.
type tracedConn struct {
	oncrpc.Conn
	tr *laneTrace
}

func (c *tracedConn) SendTo(dst netsim.Addr, payload []byte) error {
	if len(payload) >= 4 {
		t := c.tr
		xid := binary.BigEndian.Uint32(payload[oncrpc.OffXid:])
		now := t.now()
		t.mu.Lock()
		t.sent++
		if r := t.open[xid]; r != nil {
			r.retx = append(r.retx, now)
		} else {
			if len(t.open) == 0 {
				t.busyFrom = now
			}
			t.open[xid] = &openRPC{first: now, op: t.opID}
		}
		t.mu.Unlock()
	}
	return c.Conn.SendTo(dst, payload)
}

func (c *tracedConn) Recv(timeout time.Duration) ([]byte, error) {
	d, err := c.Conn.Recv(timeout)
	if err != nil || len(d) < netsim.HeaderSize+4 {
		return d, err
	}
	t := c.tr
	xid := binary.BigEndian.Uint32(d[netsim.HeaderSize+oncrpc.OffXid:])
	now := t.now()
	t.mu.Lock()
	if r := t.open[xid]; r != nil {
		delete(t.open, xid)
		if len(t.open) == 0 {
			t.busyNS += now - t.busyFrom
		}
		t.rtts = append(t.rtts, uint32(now-r.first))
		if t.sampled(r.op) {
			for _, start := range append([]int64{r.first}, r.retx...) {
				t.nextRPC++
				t.add(span{Name: "client.rpc", ID: uint64(t.lane+1)<<48 | 1<<47 | t.nextRPC,
					Parent: r.op, Op: r.op, Start: start, End: now, Xid: xid})
			}
		}
	}
	t.mu.Unlock()
	return d, nil
}

// traceFile is what the traced pass leaves in out/trace-<workload>.json.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	SampleEvery []uint64           `json:"sample_every_per_lane"`
	Before      map[string]float64 `json:"counters_before"`
	After       map[string]float64 `json:"counters_after"`
	Spans       []span             `json:"spans"`
}

func writeTrace(dir string, tf *traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), data, 0o644)
}
