package netsim

// This file is the runtime fault-injection plane: every fault the Slice
// resilience story must tolerate (§2.3, §4.2) can be injected into a live
// fabric without rebuilding it — a host can crash (its ports are torn down
// exactly as a dead machine's sockets vanish) and later restart, links can
// be cut directionally or a host isolated entirely, and individual links
// can be degraded with loss, added latency, duplication, and reordering.
//
// Fault state is published as an immutable snapshot behind an atomic
// pointer, mirroring the tap and routing-table design: the datagram hot
// path pays one pointer load when no faults are configured, and mutators
// copy-on-write under a small mutex. Faults compose with the static
// Config (LossRate, Latency), which stays untouched.

import (
	"time"
)

// LinkFault degrades one directional host→host link.
type LinkFault struct {
	// Drop is the probability in [0,1) that a datagram on the link is
	// discarded.
	Drop float64
	// Latency is added to every delivery on the link (a latency spike).
	Latency time.Duration
	// Duplicate is the probability that a datagram is delivered twice —
	// the failure mode at-most-once execution exists for.
	Duplicate float64
	// Reorder is the probability that a datagram is held back by a random
	// extra delay of up to ReorderWindow, letting later traffic overtake.
	Reorder float64
	// ReorderWindow bounds the reorder delay (default 2ms).
	ReorderWindow time.Duration
}

// IsZero reports whether the fault does nothing.
func (f LinkFault) IsZero() bool { return f == LinkFault{} }

// hostPair is a directional src→dst host link.
type hostPair struct{ src, dst uint32 }

// faultState is one immutable snapshot of the fault plane. A nil snapshot
// means "no faults": the hot path does a single pointer load and moves on.
type faultState struct {
	down     map[uint32]bool   // crashed hosts (ports torn down)
	isolated map[uint32]bool   // partitioned hosts (ports stay bound)
	cut      map[hostPair]bool // directional link cuts
	links    map[hostPair]LinkFault
}

// empty reports whether the snapshot injects nothing.
func (fs *faultState) empty() bool {
	return len(fs.down) == 0 && len(fs.isolated) == 0 &&
		len(fs.cut) == 0 && len(fs.links) == 0
}

// clone deep-copies a snapshot (or makes a fresh one from nil).
func (fs *faultState) clone() *faultState {
	c := &faultState{
		down:     make(map[uint32]bool),
		isolated: make(map[uint32]bool),
		cut:      make(map[hostPair]bool),
		links:    make(map[hostPair]LinkFault),
	}
	if fs != nil {
		for h := range fs.down {
			c.down[h] = true
		}
		for h := range fs.isolated {
			c.isolated[h] = true
		}
		for p := range fs.cut {
			c.cut[p] = true
		}
		for p, lf := range fs.links {
			c.links[p] = lf
		}
	}
	return c
}

// mutateFaults applies fn to a copy of the fault state and publishes it.
// An empty resulting state is stored as nil so the fast path stays a
// nil-check.
func (n *Network) mutateFaults(fn func(*faultState)) {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	next := n.faults.Load().clone()
	fn(next)
	if next.empty() {
		var nilState *faultState
		n.faults.Store(nilState)
		return
	}
	n.faults.Store(next)
}

// CrashHost fails a host: every port bound on it is closed (as a dead
// machine's sockets vanish, waking blocked receivers with ErrClosed) and
// all traffic to or from it is dropped until RestartHost. It returns the
// number of ports torn down.
func (n *Network) CrashHost(host uint32) int {
	n.mutateFaults(func(fs *faultState) { fs.down[host] = true })
	n.mu.RLock()
	var victims []*Port
	for a, p := range n.ports {
		if a.Host == host {
			victims = append(victims, p)
		}
	}
	n.mu.RUnlock()
	for _, p := range victims {
		p.Close()
	}
	return len(victims)
}

// RestartHost brings a crashed host back: new ports may bind on it and
// traffic flows again. Ports torn down by CrashHost stay closed; the
// restarted component binds fresh ones.
func (n *Network) RestartHost(host uint32) {
	n.mutateFaults(func(fs *faultState) { delete(fs.down, host) })
}

// HostDown reports whether a host is currently crashed.
func (n *Network) HostDown(host uint32) bool {
	fs := n.faults.Load()
	return fs != nil && fs.down[host]
}

// IsolateHost partitions a host from the entire fabric: its ports stay
// bound and its processes keep running, but every datagram to or from it
// is dropped — the classic network partition, distinct from a crash.
func (n *Network) IsolateHost(host uint32) {
	n.mutateFaults(func(fs *faultState) { fs.isolated[host] = true })
}

// RejoinHost heals an IsolateHost partition.
func (n *Network) RejoinHost(host uint32) {
	n.mutateFaults(func(fs *faultState) { delete(fs.isolated, host) })
}

// PartitionOneWay cuts the directional link src→dst: datagrams from src
// hosts to dst hosts are dropped, while the reverse direction still
// flows. Asymmetric partitions are the hardest case for request/response
// protocols; the harness injects them deliberately.
func (n *Network) PartitionOneWay(src, dst uint32) {
	n.mutateFaults(func(fs *faultState) { fs.cut[hostPair{src, dst}] = true })
}

// Heal removes both directional cuts between a and b.
func (n *Network) Heal(a, b uint32) {
	n.mutateFaults(func(fs *faultState) {
		delete(fs.cut, hostPair{a, b})
		delete(fs.cut, hostPair{b, a})
	})
}

// SetLinkFault installs (or, for a zero fault, clears) a degradation on
// the directional link src→dst.
func (n *Network) SetLinkFault(src, dst uint32, f LinkFault) {
	n.mutateFaults(func(fs *faultState) {
		if f.IsZero() {
			delete(fs.links, hostPair{src, dst})
			return
		}
		fs.links[hostPair{src, dst}] = f
	})
}

// HealAll clears every injected fault: partitions, isolations, link
// degradations, and down markers (crashed hosts' ports stay closed).
func (n *Network) HealAll() {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	var nilState *faultState
	n.faults.Store(nilState)
}

// defaultReorderWindow bounds reorder hold-back when the fault does not
// specify one.
const defaultReorderWindow = 2 * time.Millisecond

// faultVerdict consults the fault plane for one delivery. It returns
// whether to drop the datagram, any extra delivery delay, and whether to
// duplicate the delivery.
func (n *Network) faultVerdict(srcHost, dstHost uint32) (drop bool, delay time.Duration, dup bool) {
	fs := n.faults.Load()
	if fs == nil {
		return false, 0, false
	}
	if fs.down[srcHost] || fs.down[dstHost] ||
		fs.isolated[srcHost] || fs.isolated[dstHost] ||
		fs.cut[hostPair{srcHost, dstHost}] {
		return true, 0, false
	}
	lf, ok := fs.links[hostPair{srcHost, dstHost}]
	if !ok {
		return false, 0, false
	}
	if lf.Drop > 0 && n.randFloat() < lf.Drop {
		return true, 0, false
	}
	delay = lf.Latency
	if lf.Reorder > 0 && n.randFloat() < lf.Reorder {
		window := lf.ReorderWindow
		if window <= 0 {
			window = defaultReorderWindow
		}
		delay += time.Duration(n.randFloat() * float64(window))
	}
	dup = lf.Duplicate > 0 && n.randFloat() < lf.Duplicate
	return false, delay, dup
}

// randFloat draws from the network's seeded generator.
func (n *Network) randFloat() float64 {
	n.rngMu.Lock()
	v := n.rng.Float64()
	n.rngMu.Unlock()
	return v
}
