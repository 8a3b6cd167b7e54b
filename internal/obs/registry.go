package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry names the histograms of one component ("uproxy", "dirsrv[0]",
// "coord", ...) and holds its ring of events. Components resolve their
// histogram pointers once at construction; the registry lock is never on
// a data path.
type Registry struct {
	component string

	mu    sync.Mutex
	hists map[string]*Histogram
	order []string

	// rpc maps a served call's program and procedure (ObserveRPC) to its
	// histogram. It is copied on write under mu and read without it.
	rpc atomic.Pointer[map[uint64]*Histogram]

	// events is the component's ring: a restarted component writes on
	// into its predecessor's, as it does into its histograms.
	events Recorder
}

// NewRegistry creates a registry for the named component.
func NewRegistry(component string) *Registry {
	return &Registry{component: component, hists: make(map[string]*Histogram)}
}

// Component returns the component name the registry was created with.
func (r *Registry) Component() string { return r.component }

// Hist returns the named histogram, creating it on first use. Callers
// keep the returned pointer; Record on it never touches the registry.
func (r *Registry) Hist(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hist(name)
}

// hist is Hist with r.mu held.
func (r *Registry) hist(name string) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := new(Histogram)
	r.hists[name] = h
	r.order = append(r.order, name)
	return h
}

// Record writes one event of the call id into the registry's ring; a nil
// registry records nothing.
func (r *Registry) Record(id CallID, k Kind, layer uint8, at int64, v uint64) {
	if r != nil {
		r.events.Record(id, k, layer, at, v)
	}
}

// Stamp records an event at Now; a nil registry reads no clock.
func (r *Registry) Stamp(id CallID, k Kind, layer uint8, v uint64) {
	if r != nil {
		r.events.Record(id, k, layer, Now(), v)
	}
}

// Events returns the events in the registry's ring, in the order they
// were written.
func (r *Registry) Events() []Event { return r.events.Events() }

// Snapshot copies every histogram in the registry.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	hists := make([]*Histogram, len(names))
	for i, n := range names {
		hists[i] = r.hists[n]
	}
	r.mu.Unlock()

	s := RegistrySnapshot{Component: r.component, Hists: make(map[string]HistSnapshot, len(names))}
	for i, n := range names {
		s.Hists[n] = hists[i].Snapshot()
	}
	return s
}

// RegistrySnapshot is a point-in-time copy of one component's histograms.
type RegistrySnapshot struct {
	Component string                  `json:"component"`
	Hists     map[string]HistSnapshot `json:"hists"`
}

// WriteText writes the snapshot in the text exposition format:
//
//	component name count=N p50=... p95=... p99=... max=...
func (s RegistrySnapshot) WriteText(w io.Writer) {
	for _, name := range sortedKeys(s.Hists) {
		h := s.Hists[name]
		if h.Count() == 0 {
			continue
		}
		fmt.Fprintf(w, "%s %s count=%d p50=%s p95=%s p99=%s max=%s\n",
			s.Component, name, h.Count(),
			Nanos(h.Percentile(0.50)), Nanos(h.Percentile(0.95)),
			Nanos(h.Percentile(0.99)), Nanos(h.Max()))
	}
}

func sortedKeys(m map[string]HistSnapshot) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MarshalJSON encodes only the non-empty buckets, keyed by bucket index,
// keeping cluster snapshots compact enough to fit one datagram.
func (s HistSnapshot) MarshalJSON() ([]byte, error) {
	m := make(map[string]uint64)
	for i, b := range s.Buckets {
		if b != 0 {
			m[strconv.Itoa(i)] = b
		}
	}
	return json.Marshal(struct {
		B map[string]uint64 `json:"b"`
	}{m})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (s *HistSnapshot) UnmarshalJSON(data []byte) error {
	var wire struct {
		B map[string]uint64 `json:"b"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	*s = HistSnapshot{}
	for k, v := range wire.B {
		i, err := strconv.Atoi(k)
		if err != nil || i < 0 || i >= NumBuckets {
			return fmt.Errorf("obs: bad bucket index %q", k)
		}
		s.Buckets[i] = v
	}
	return nil
}
