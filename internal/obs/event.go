package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// HopKind classifies one hop of a request's path through the ensemble:
// the layer of a forwarded call's or a sub-call's events.
type HopKind uint8

// Hop kinds, in the order a request can cross them.
const (
	HopNone      HopKind = iota
	HopDirsrv            // a directory server served the request
	HopSmallfile         // a small-file server served the request
	HopStorage           // a storage node served the request
	HopCoord             // a coordinator RPC (intend/complete)
	HopMount             // the MOUNT program hop (served by a directory site)
)

var hopNames = [...]string{"none", "dirsrv", "smallfile", "storage", "coord", "mount"}

// String names the hop kind for exposition.
func (k HopKind) String() string {
	if int(k) < len(hopNames) {
		return hopNames[k]
	}
	return "none"
}

// StageNames name the µproxy's four stages of Table 3, the layer of a
// KindStage event, in the µproxy's stage order.
var StageNames = [...]string{"intercept", "decode", "rewrite", "softstate"}

// SampleBits sets the sample: 1 call in 1<<SampleBits is traced.
const SampleBits = 4

// Sampled reports whether the call with transaction id xid is in the
// sample every role traces, 1 call in 16: a role writes events of a call
// outside it only when it always traces that kind of call. The xid is
// hashed (its product with 2³²/φ, top bits), not masked: a client's xids
// run in sequence, and a workload's fixed cycle of operations over
// sequential xids would alias with a mask, tracing one operation of the
// cycle always and another never.
func Sampled(xid uint32) bool { return (xid*0x9E3779B9)>>(32-SampleBits) == 0 }

// base anchors Now: a time.Since of it reads the monotonic clock alone.
var base = time.Now()

// Now reads the one clock every role stamps its events with: nanoseconds
// since the process started, on the monotonic clock. Events of different
// roles' rings therefore merge in time order.
func Now() int64 { return int64(time.Since(base)) }

// WallNS converts a Now reading to Unix nanoseconds.
func WallNS(reading int64) int64 { return base.UnixNano() + reading }

// Kind says what an event records.
type Kind uint8

// Event kinds. Each names what its Layer and Value hold.
const (
	KindRecv      Kind = iota + 1 // the µproxy took the call in; layer: procedure, value: program
	KindStage                     // a µproxy stage lap; layer: the stage (StageNames), value: its ns
	KindForward                   // the µproxy sent the call on; layer: the hop
	KindReply                     // the forwarded call's last reply came back; layer: the hop, value: the server's ns
	KindEnd                       // the µproxy answered the client; value: the call's ns there
	KindCall                      // a sub-call made on the call's behalf went out; layer: the hop
	KindCallReply                 // its reply came back; layer: the hop, value: the server's ns
	KindBegin                     // a server's handler began; layer: procedure, value: program
	KindDone                      // the handler returned; layer: procedure, value: its ns
	KindAppend                    // a journal record was appended; value: its bytes
	KindSync                      // the journal was made durable
)

var kindNames = [...]string{"?", "recv", "stage", "forward", "reply", "end", "call", "call-reply",
	"begin", "done", "append", "sync"}

// String names the kind for exposition.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// CallID is the identity every role sees of one call, which keys its
// events: the client's source host and port and its xid, and the Step of
// a call a role makes on its behalf (0 for the call itself).
type CallID struct {
	Host uint32 `json:"h"`
	Port uint16 `json:"p"`
	Step uint16 `json:"s,omitempty"`
	Xid  uint32 `json:"x"`
}

// Event is one record of a ring, and of a Trace, which names the
// Component whose ring held it.
type Event struct {
	CallID
	Component string `json:"c,omitempty"`
	Kind      Kind   `json:"k"`
	Layer     uint8  `json:"l,omitempty"`
	At        int64  `json:"t"` // a Now reading
	Value     uint64 `json:"v,omitempty"`
	seq       uint64 // the ring's claim number: the writer's order
}

// RingSize is how many events a Recorder keeps: its latest.
const RingSize = 1 << 12

// slot holds one event in four words. seq is 2(n+1) once claim n's words
// are in, 1 while a writer stores them, and 0 before the first write.
type slot struct {
	seq atomic.Uint64
	w   [4]atomic.Uint64
}

// Recorder is a role's ring of events: fixed-size and pointer-free, so
// writing one allocates nothing and the collector takes no lock of the
// role's to read it.
type Recorder struct {
	head  atomic.Uint64
	slots [RingSize]slot
}

// Record writes one event. One atomic add claims its slot; the slot's
// sequence word brackets the stores of its words, so a reader takes an
// event whole or not at all. A write that finds its slot still being
// written, by a writer a whole ring behind, drops its event.
func (r *Recorder) Record(id CallID, k Kind, layer uint8, at int64, v uint64) {
	n := r.head.Add(1) - 1
	s := &r.slots[n%RingSize]
	if s.seq.Swap(1)&1 != 0 {
		return
	}
	s.w[0].Store(uint64(id.Host)<<32 | uint64(id.Port)<<16 | uint64(id.Step))
	s.w[1].Store(uint64(id.Xid)<<32 | uint64(k)<<8 | uint64(layer))
	s.w[2].Store(uint64(at))
	s.w[3].Store(v)
	s.seq.Store(2 * (n + 1))
}

// Events returns the ring's events in the order they were written.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, min(r.head.Load(), RingSize))
	for i := range r.slots {
		s := &r.slots[i]
		seq := s.seq.Load()
		if seq == 0 || seq&1 != 0 {
			continue
		}
		w0, w1, w2, w3 := s.w[0].Load(), s.w[1].Load(), s.w[2].Load(), s.w[3].Load()
		if s.seq.Load() != seq {
			continue
		}
		out = append(out, Event{
			CallID: CallID{Host: uint32(w0 >> 32), Port: uint16(w0 >> 16), Step: uint16(w0), Xid: uint32(w1 >> 32)},
			Kind:   Kind(w1 >> 8), Layer: uint8(w1), At: int64(w2), Value: w3, seq: seq,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}
