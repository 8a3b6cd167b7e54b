// Package sim is the discrete-event performance simulator used to
// regenerate the paper's evaluation (Table 2 and Figures 3-6).
//
// The paper's numbers come from a hardware testbed — Gigabit Ethernet,
// Dell storage nodes with eight Cheetah drives each, FreeBSD kernels —
// that cannot be reproduced here. What can be reproduced is the *shape* of
// the results: who wins, by what factor, and where the knees fall. The
// simulator models the testbed as a network of first-come-first-served
// multi-server queueing stations (client CPUs, server CPUs, disk arms,
// NICs, logs) with service times calibrated from the constants the paper
// itself reports (§5), and drives them with the paper's workloads. The
// request ROUTING between stations is computed by the same
// internal/route policy code the live µproxy uses, so the experiments
// exercise the actual contribution, not a re-derivation of it.
package sim

import (
	"container/heap"
	"math"
)

// event is one scheduled callback.
type event struct {
	t   float64 // simulated seconds
	seq uint64  // tie-break for deterministic ordering
	fn  func()
}

// eventHeap orders events by time then sequence.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Engine is a deterministic discrete-event simulation core.
type Engine struct {
	now  float64
	seq  uint64
	heap eventHeap
}

// NewEngine returns an engine at simulated time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run at simulated time t (>= Now).
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.heap, event{t: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// Run processes events until the queue drains or simulated time reaches
// until (0 means no bound). It returns the final simulated time.
func (e *Engine) Run(until float64) float64 {
	for len(e.heap) > 0 {
		ev := heap.Pop(&e.heap).(event)
		if until > 0 && ev.t > until {
			e.now = until
			return e.now
		}
		e.now = ev.t
		ev.fn()
	}
	return e.now
}

// Station is a first-come-first-served queueing resource with one or more
// identical servers: a CPU, a set of disk arms, a NIC, a log device.
type Station struct {
	eng     *Engine
	Name    string
	servers int

	busy  int
	queue []job
	// accounting
	BusyTime float64 // aggregate busy server-seconds
	Served   uint64
	WaitTime float64 // aggregate queueing delay (excluding service)
}

type job struct {
	dur     float64
	arrived float64
	done    func()
}

// NewStation creates a station with the given number of servers.
func NewStation(eng *Engine, name string, servers int) *Station {
	if servers < 1 {
		servers = 1
	}
	return &Station{eng: eng, Name: name, servers: servers}
}

// Visit requests dur seconds of service; done runs on completion. Zero or
// negative durations complete immediately.
func (s *Station) Visit(dur float64, done func()) {
	if dur <= 0 {
		if done != nil {
			s.eng.After(0, done)
		}
		return
	}
	j := job{dur: dur, arrived: s.eng.Now(), done: done}
	if s.busy < s.servers {
		s.start(j)
		return
	}
	s.queue = append(s.queue, j)
}

func (s *Station) start(j job) {
	s.busy++
	s.WaitTime += s.eng.Now() - j.arrived
	s.BusyTime += j.dur
	s.Served++
	s.eng.After(j.dur, func() {
		s.busy--
		if len(s.queue) > 0 {
			next := s.queue[0]
			s.queue = s.queue[1:]
			s.start(next)
		}
		if j.done != nil {
			j.done()
		}
	})
}

// Utilization returns the mean fraction of busy servers over [0, now].
func (s *Station) Utilization() float64 {
	t := s.eng.Now()
	if t <= 0 {
		return 0
	}
	return s.BusyTime / (t * float64(s.servers))
}

// Backlog returns the jobs currently queued or in service.
func (s *Station) Backlog() int { return len(s.queue) + s.busy }

// Visit describes one stop of an operation's path through the system.
type Stop struct {
	St  *Station
	Dur float64
}

// Chain runs the stops sequentially and calls done at the end. It is the
// continuation-passing backbone for multi-hop operations (client CPU →
// server CPU → disk → reply).
func Chain(stops []Stop, done func()) {
	if len(stops) == 0 {
		if done != nil {
			done()
		}
		return
	}
	head, rest := stops[0], stops[1:]
	head.St.Visit(head.Dur, func() { Chain(rest, done) })
}

// rng is a small deterministic PRNG (xorshift64*) so simulations are
// reproducible without seeding global state.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform sample in [0, 1).
func (r *rng) Float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// Intn returns a uniform sample in [0, n).
func (r *rng) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Exp returns an exponential sample with the given mean.
func (r *rng) Exp(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}
