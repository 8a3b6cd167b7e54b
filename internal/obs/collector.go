package obs

import (
	"encoding/json"
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
	ProcTraces   = 2 // args: u32 max -> opaque JSON []NamedSpan

	// Elastic-ensemble admin verbs, answered by the same stats plane.
	ProcRebalanceStatus = 3 // -> opaque JSON rebalance.Status
	ProcGrow            = 4 // args: u32 nodes -> opaque JSON ack
	ProcShrink          = 5 // args: u32 nodes -> opaque JSON ack
)

// Collector aggregates the registries (and tracers) of every component
// of an ensemble into cluster-wide snapshots.
type Collector struct {
	mu      sync.Mutex
	regs    []*Registry
	tracers []namedTracer
}

type namedTracer struct {
	name string
	t    *Tracer
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

// AddTracer registers a component's trace ring under name, replacing a
// previous registration of the same name.
func (c *Collector) AddTracer(name string, t *Tracer) {
	if t == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, old := range c.tracers {
		if old.name == name {
			c.tracers[i] = namedTracer{name: name, t: t}
			return
		}
	}
	c.tracers = append(c.tracers, namedTracer{name: name, t: t})
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

// NamedSpan attributes a completed span to the component that traced it.
type NamedSpan struct {
	Component string `json:"component"`
	SpanRecord
}

// Traces returns up to max recently completed spans across all
// registered tracers, newest first.
func (c *Collector) Traces(max int) []NamedSpan {
	c.mu.Lock()
	tracers := append([]namedTracer(nil), c.tracers...)
	c.mu.Unlock()
	var out []NamedSpan
	for _, nt := range tracers {
		for _, rec := range nt.t.Recent(max) {
			out = append(out, NamedSpan{Component: nt.name, SpanRecord: rec})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].End > out[j].End })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// TracesJSON serializes up to max recent spans.
func (c *Collector) TracesJSON(max int) []byte {
	b, err := json.Marshal(c.Traces(max))
	if err != nil {
		return []byte("[]")
	}
	return b
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
