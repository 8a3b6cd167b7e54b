package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// The stats RPC program: the µproxy absorbs calls to this program
// addressed to the virtual server and answers them from the ensemble's
// Collector, so `slicectl stats` / `slicectl trace` aggregate a live
// deployment over the same wire the NFS traffic uses.
const (
	Program = 200401
	Version = 1

	ProcSnapshot = 1 // -> opaque JSON ClusterSnapshot
	ProcTraces   = 2 // args: u32 max (≤ MaxTraces) -> opaque JSON []Trace

	// Elastic-ensemble admin verbs, answered by the same stats plane.
	ProcRebalanceStatus = 3 // -> opaque JSON rebalance.Status
	ProcGrow            = 4 // args: u32 nodes -> opaque JSON ack
	ProcShrink          = 5 // args: u32 nodes -> opaque JSON ack
)

// MaxTraces bounds the calls one ProcTraces answer stitches.
const MaxTraces = 64

// Collector aggregates the registries of every component of an ensemble
// into cluster-wide snapshots and stitched traces.
type Collector struct {
	mu   sync.Mutex
	regs []*Registry
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// AddRegistry registers a component's registry. A later registration
// with the same component name replaces the earlier one (a restarted
// component re-registers its fresh registry).
func (c *Collector) AddRegistry(r *Registry) {
	if r == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, old := range c.regs {
		if old.Component() == r.Component() {
			c.regs[i] = r
			return
		}
	}
	c.regs = append(c.regs, r)
}

// ClusterSnapshot is the JSON form served to slicectl stats.
type ClusterSnapshot struct {
	Components []RegistrySnapshot `json:"components"`
}

// Snapshot copies every registered registry.
func (c *Collector) Snapshot() ClusterSnapshot {
	c.mu.Lock()
	regs := append([]*Registry(nil), c.regs...)
	c.mu.Unlock()
	var s ClusterSnapshot
	for _, r := range regs {
		s.Components = append(s.Components, r.Snapshot())
	}
	sort.Slice(s.Components, func(i, j int) bool {
		return s.Components[i].Component < s.Components[j].Component
	})
	return s
}

// SnapshotJSON serializes the cluster snapshot.
func (c *Collector) SnapshotJSON() []byte {
	b, err := json.Marshal(c.Snapshot())
	if err != nil {
		return []byte("{}")
	}
	return b
}

// Trace is one call's events from every component's ring, in time order.
type Trace []Event

// Stitch joins the events of every registered ring by call — source and
// xid, every Step of the call together — and returns the max calls whose
// latest event is newest (all of them when max ≤ 0), newest first.
func (c *Collector) Stitch(max int) []Trace {
	c.mu.Lock()
	regs := append([]*Registry(nil), c.regs...)
	c.mu.Unlock()
	calls := map[CallID]Trace{}
	for _, r := range regs {
		for _, ev := range r.Events() {
			ev.Component = r.Component()
			k := ev.CallID
			k.Step = 0
			calls[k] = append(calls[k], ev)
		}
	}
	out := make([]Trace, 0, len(calls))
	for _, t := range calls {
		sort.SliceStable(t, func(i, j int) bool { return t[i].At < t[j].At })
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][len(out[i])-1].At > out[j][len(out[j])-1].At })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// StitchJSON serializes up to max stitched calls in at most limit bytes,
// halving the calls it sends until they fit.
func (c *Collector) StitchJSON(max, limit int) []byte {
	traces := c.Stitch(max)
	for {
		b, err := json.Marshal(traces)
		if err != nil {
			return []byte("[]")
		}
		if len(b) <= limit || len(traces) <= 1 {
			return b
		}
		traces = traces[:len(traces)/2]
	}
}

// WriteText writes the trace as one block: a line naming the call and
// how long its events run, then one line an event, offset from the first. A reply's
// line splits its hop's round trip into the server's time, which the
// reply header carried, and the rest, wire and queueing.
func (t Trace) WriteText(w io.Writer) {
	if len(t) == 0 {
		return
	}
	first, op := t[0].At, ""
	for _, ev := range t {
		if op == "" && (ev.Kind == KindRecv || ev.Kind == KindBegin) {
			op = OpName(uint32(ev.Value), uint32(ev.Layer))
		}
	}
	fmt.Fprintf(w, "call %d:%d xid %#x %s %s\n", t[0].Host, t[0].Port, t[0].Xid, op, Nanos(uint64(t[len(t)-1].At-first)))
	type hop struct {
		c     string
		layer uint8
		step  uint16
	}
	sent := map[hop]int64{}
	for _, ev := range t {
		fmt.Fprintf(w, "  +%-9s %-12s", Nanos(uint64(ev.At-first)), ev.Component)
		if ev.Step != 0 {
			fmt.Fprintf(w, " step %#04x", ev.Step)
		}
		fmt.Fprintf(w, " %s", ev.Kind)
		switch ev.Kind {
		case KindRecv, KindBegin:
			fmt.Fprintf(w, " %s", OpName(uint32(ev.Value), uint32(ev.Layer)))
		case KindStage:
			fmt.Fprintf(w, " %s %s", StageNames[int(ev.Layer)%len(StageNames)], Nanos(ev.Value))
		case KindForward, KindCall:
			sent[hop{ev.Component, ev.Layer, ev.Step}] = ev.At
			fmt.Fprintf(w, " %s", HopKind(ev.Layer))
		case KindReply, KindCallReply:
			fmt.Fprintf(w, " %s", HopKind(ev.Layer))
			if at, ok := sent[hop{ev.Component, ev.Layer, ev.Step}]; ok && ev.At >= at {
				total := uint64(ev.At - at)
				fmt.Fprintf(w, " %s (server %s, wire+queue %s)", Nanos(total), Nanos(ev.Value), Nanos(total-min(total, ev.Value)))
			}
		case KindEnd, KindDone:
			fmt.Fprintf(w, " %s", Nanos(ev.Value))
		case KindAppend:
			fmt.Fprintf(w, " %d B", ev.Value)
		}
		fmt.Fprintln(w)
	}
}

// WriteText writes the whole cluster snapshot in the text exposition
// format (the periodic dump of sliced).
func (c *Collector) WriteText(w io.Writer) {
	for _, rs := range c.Snapshot().Components {
		rs.WriteText(w)
	}
}

// MergeOpClass folds every component's histogram of the given name into
// one cluster-wide snapshot (e.g. "nfs.lookup" across all directory
// servers).
func (s ClusterSnapshot) MergeOpClass(name string) HistSnapshot {
	var out HistSnapshot
	for _, comp := range s.Components {
		if h, ok := comp.Hists[name]; ok {
			out.Merge(h)
		}
	}
	return out
}

// MergeRole folds every component filling one role — the bare role name
// or its fleet-indexed instances ("uproxy", "uproxy[1]", ...) — into a
// single synthetic component named as. Per-instance snapshots stay in
// the cluster snapshot untouched; the aggregate is the fleet-wide view
// of a scaled-out role. Returns the aggregate and how many instances
// contributed.
func (s ClusterSnapshot) MergeRole(role, as string) (RegistrySnapshot, int) {
	out := RegistrySnapshot{Component: as, Hists: make(map[string]HistSnapshot)}
	n := 0
	for _, comp := range s.Components {
		if comp.Component != role && !strings.HasPrefix(comp.Component, role+"[") {
			continue
		}
		n++
		for name, h := range comp.Hists {
			m := out.Hists[name]
			m.Merge(h)
			out.Hists[name] = m
		}
	}
	return out, n
}
