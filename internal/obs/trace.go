package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// HopKind classifies one hop of a request's path through the ensemble.
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

// String names the hop kind for exposition.
func (k HopKind) String() string {
	switch k {
	case HopDirsrv:
		return "dirsrv"
	case HopSmallfile:
		return "smallfile"
	case HopStorage:
		return "storage"
	case HopCoord:
		return "coord"
	case HopMount:
		return "mount"
	default:
		return "none"
	}
}

// MaxHops bounds the hops one span records. Orchestrated operations
// (remove, absorbed commit) cross several; beyond the bound the span
// keeps its earliest hops and counts the rest in NHops.
const MaxHops = 8

// Hop is one recorded hop: the total round-trip observed by the
// initiator and, when the server's reply carried the trace field, the
// server-side handler time (the difference is wire + queueing).
type Hop struct {
	Kind     HopKind `json:"kind"`
	TotalNS  uint64  `json:"total_ns"`
	ServerNS uint64  `json:"server_ns"`
}

// Span is the per-request trace context: an xid-keyed record of where
// one request's time went. Spans are pooled — Start/Finish recycle them
// — so tracing adds no allocation to the steady-state data path.
type Span struct {
	ID    uint64 `json:"id"`   // the client RPC xid
	Prog  uint32 `json:"prog"` // RPC program (NFS or MOUNT)
	Proc  uint32 `json:"proc"` // procedure number within Prog
	Start int64  `json:"start"`

	// Per-stage µproxy costs for this request, request and reply halves
	// together: Table 3's four stages, from the same clock laps that feed
	// the µproxy's cumulative counters and stage.* histograms.
	InterceptNS uint64 `json:"intercept_ns"`
	DecodeNS    uint64 `json:"decode_ns"`
	RewriteNS   uint64 `json:"rewrite_ns"`
	SoftStateNS uint64 `json:"softstate_ns"`

	Hops  [MaxHops]Hop `json:"hops"`
	NHops int          `json:"nhops"` // hops crossed (may exceed len(Hops))
}

// AddHop records one hop. It is safe to call more than MaxHops times;
// overflow hops are counted but not itemized.
func (s *Span) AddHop(k HopKind, totalNS, serverNS uint64) {
	if s.NHops < MaxHops {
		s.Hops[s.NHops] = Hop{Kind: k, TotalNS: totalNS, ServerNS: serverNS}
	}
	s.NHops++
}

// HopTotal sums the recorded time across hops of the given kind.
func (s *Span) HopTotal(k HopKind) uint64 {
	var n uint64
	hops := s.NHops
	if hops > MaxHops {
		hops = MaxHops
	}
	for _, h := range s.Hops[:hops] {
		if h.Kind == k {
			n += h.TotalNS
		}
	}
	return n
}

// SpanRecord is a completed span archived in the trace ring.
type SpanRecord struct {
	Span
	End int64 `json:"end"`
}

// nRings shards the completed-span ring so closing spans from concurrent
// response paths does not serialize on one lock.
const nRings = 8

type traceRing struct {
	mu    sync.Mutex
	slots []SpanRecord
	next  int
	full  bool
}

// Tracer owns the span pool and a sharded ring of recently completed
// spans (for `slicectl trace` and the exposition endpoints).
type Tracer struct {
	pool sync.Pool
	ring [nRings]traceRing
	seq  atomic.Uint64
}

// NewTracer creates a tracer retaining about ringSize completed spans
// (0 means a default of 512).
func NewTracer(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = 512
	}
	per := (ringSize + nRings - 1) / nRings
	t := &Tracer{}
	t.pool.New = func() any { return new(Span) }
	for i := range t.ring {
		t.ring[i].slots = make([]SpanRecord, per)
	}
	return t
}

// Start returns a zeroed pooled span stamped with the caller's clock
// reading (UnixNano); callers on a hot path pass the timestamp they
// already took rather than reading the clock again.
func (t *Tracer) Start(id uint64, proc uint32, startNS int64) *Span {
	s := t.pool.Get().(*Span)
	*s = Span{ID: id, Proc: proc, Start: startNS}
	return s
}

// Finish archives the span into the ring and recycles it. The span must
// not be used after Finish.
func (t *Tracer) Finish(s *Span, endNS int64) {
	r := &t.ring[t.seq.Add(1)%nRings]
	r.mu.Lock()
	r.slots[r.next] = SpanRecord{Span: *s, End: endNS}
	r.next++
	if r.next == len(r.slots) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
	t.pool.Put(s)
}

// Abort recycles a span without archiving it (the request was dropped
// before it crossed any hop).
func (t *Tracer) Abort(s *Span) { t.pool.Put(s) }

// Recent returns up to max completed spans, newest first.
func (t *Tracer) Recent(max int) []SpanRecord {
	var out []SpanRecord
	for i := range t.ring {
		r := &t.ring[i]
		r.mu.Lock()
		n := r.next
		if r.full {
			n = len(r.slots)
		}
		out = append(out, r.slots[:n]...)
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].End > out[j].End })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}
