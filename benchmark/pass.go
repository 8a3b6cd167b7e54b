package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// runConfig is what every pass of one invocation shares.
type runConfig struct {
	seed    uint64
	seconds float64 // length of one untraced timed phase
	// scale is 1 in every real run; the smoke test shrinks prefill,
	// warm-up and the reference kernel with it.
	scale  float64
	outDir string
}

// minWarmOps keeps a scaled-down warm-up long enough to hash.
const minWarmOps = 8

// scaled is n×scale, at least min.
func scaled(n int, scale float64, min int) int {
	if v := int(float64(n) * scale); v > min {
		return v
	}
	return min
}

// setupRepeats is how many times the pass that reports setup_s builds its
// deployment. setup_s is the median, so one slow construction (a cold
// heap, a late GC) does not read as a set-up regression; the last
// deployment built is the one the timed phase runs on.
const setupRepeats = 3

// passResult is everything one pass over one workload measured.
type passResult struct {
	setupS     float64 // median set-up, scaled to the reference host speed
	timedS     float64 // timed phase without the pauses between slices
	cpuS       float64
	attempted  int
	failed     int
	firstErr   error
	violations []string
	lat        []time.Duration // all lanes, sorted
	windows    []window
	payload    uint64
	seqHash    uint64

	// Traced pass only.
	counters map[string]float64 // timed-phase deltas
	sends    uint64
	selfNS   int64
	rtts     []uint32 // sorted
	reads    int
	raHits   int
}

func (p *passResult) ok() int { return p.attempted - p.failed }

// setUp builds the deployment and brings it to the start of the timed
// phase: ensemble construction, mount, prefill, warm-up.
func setUp(w *workloadSpec, cfg runConfig, traced bool) (*deployment, error) {
	d, err := newDeployment(w, cfg.seed, cfg.scale, traced)
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(d.lanes))
	var wg sync.WaitGroup
	for i, l := range d.lanes {
		wg.Add(1)
		go func(i int, l *lane) {
			defer wg.Done()
			if errs[i] = l.r.prefill(); errs[i] != nil {
				return
			}
			l.opLimit, l.hashing = scaled(w.warmOps, cfg.scale, minWarmOps), true
			l.r.run()
			l.hashing = false
			if l.firstErr != nil {
				errs[i] = fmt.Errorf("warm-up: %w", l.firstErr)
			}
			l.reset()
		}(i, l)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			d.close()
			return nil, fmt.Errorf("%s: lane %d: %w", w.name, i, err)
		}
	}
	return d, nil
}

// numWindows is how many equal slices the timed phase is cut into. The
// end-to-end metrics are medians over the slices, so a burst of
// interference from the host, or the ramp-up of an idle virtual CPU,
// moves a few slices and not the result.
const numWindows = 20

// phase is what the lanes of one timed phase share: the barrier they meet
// at between slices, and the process CPU time read there — once when the
// last lane has gone quiet, once when the kernels are done — so that a
// slice's CPU excludes the kernels.
type phase struct {
	sync     *barrier
	cpuEnd   []float64 // at the end of each slice (and before the first)
	cpuStart []float64 // at the start of each slice
}

func (ph *phase) markEnd()   { ph.cpuEnd = append(ph.cpuEnd, cpuSeconds()) }
func (ph *phase) markStart() { ph.cpuStart = append(ph.cpuStart, cpuSeconds()) }

// pacer cuts one lane's timed phase into slices and runs the reference
// kernel between them (host.go).
type pacer struct {
	ph       *phase
	kern     *kernel
	sliceLen time.Duration
	left     int       // slices still to run
	from     time.Time // start of the current slice

	cuts    []int     // len(lane.lat) at the end of each slice
	fails   []int     // lane.failed at the end of each slice
	durs    []float64 // each slice's length, seconds
	kernels []float64 // kernel time before the first slice and after each
}

// pause meets the other lanes, runs the kernel with them and starts the
// next slice.
func (p *pacer) pause(l *lane) {
	p.ph.sync.wait(p.ph.markEnd)
	p.kernels = append(p.kernels, p.kern.run())
	p.ph.sync.wait(p.ph.markStart)
	p.from = time.Now()
	l.lastDone = p.from
}

func (p *pacer) endSlice(l *lane) {
	p.cuts, p.fails = append(p.cuts, len(l.lat)), append(p.fails, l.failed)
	p.durs = append(p.durs, l.lastDone.Sub(p.from).Seconds())
	p.left--
	p.pause(l)
}

// window is one slice of the timed phase over all lanes.
type window struct {
	ops      int     // successful ops
	rate     float64 // Σ over lanes of ops ÷ the lane's slice length
	cpuS     float64
	p50, p99 float64 // op latency, ns
	host     float64 // host factor around the slice (host.go)
}

func cutWindows(lanes []*lane, ph *phase) []window {
	ws := make([]window, numWindows)
	for k := range ws {
		var lat []time.Duration
		var kernels []float64
		for _, l := range lanes {
			p := l.pace
			from, failed := 0, 0
			if k > 0 {
				from, failed = p.cuts[k-1], p.fails[k-1]
			}
			ok := p.cuts[k] - from - (p.fails[k] - failed)
			ws[k].ops += ok
			ws[k].rate += float64(ok) / p.durs[k]
			lat = append(lat, l.lat[from:p.cuts[k]]...)
			kernels = append(kernels, p.kernels[k], p.kernels[k+1])
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		ws[k].p50, ws[k].p99 = percentile(lat, 0.50), percentile(lat, 0.99)
		ws[k].cpuS = ph.cpuEnd[k+1] - ph.cpuStart[k]
		ws[k].host = hostFactor(kernels...)
	}
	return ws
}

// runPass sets the workload up, drives it closed-loop from numLanes lanes
// for the given time, and verifies its outputs.
func runPass(w *workloadSpec, cfg runConfig, seconds float64, setups int, traced bool) (*passResult, error) {
	var d *deployment
	setupS := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
		}
		h0 := idleHostFactor(cfg.scale)
		t0 := time.Now()
		var err error
		if d, err = setUp(w, cfg, traced); err != nil {
			return nil, err
		}
		raw := time.Since(t0).Seconds()
		setupS = append(setupS, raw/((h0+idleHostFactor(cfg.scale))/2))
	}
	defer d.close()
	p := &passResult{setupS: median(setupS)}

	// Collect the discarded deployments now, not inside the timed phase.
	runtime.GC()

	var before map[string]float64
	if traced {
		before = snapshot(d)
	}
	ph := &phase{sync: newBarrier(len(d.lanes))}
	sliceLen := time.Duration(seconds * float64(time.Second) / numWindows)
	var wg sync.WaitGroup
	for _, l := range d.lanes {
		l.pace = &pacer{ph: ph, kern: newKernel(cfg.scale), sliceLen: sliceLen, left: numWindows}
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			l.pace.pause(l)
			l.r.run()
		}(l)
	}
	wg.Wait()
	p.windows = cutWindows(d.lanes, ph)
	for _, w := range p.windows {
		p.cpuS += w.cpuS
	}
	var after map[string]float64
	if traced {
		after = snapshot(d)
		p.counters = delta(before, after)
	}

	for _, l := range d.lanes {
		for _, s := range l.pace.durs {
			p.timedS += s / float64(len(d.lanes))
		}
		p.attempted += len(l.lat)
		p.failed += l.failed
		if p.firstErr == nil {
			p.firstErr = l.firstErr
		}
		p.lat = append(p.lat, l.lat...)
		p.payload += l.payload
		p.seqHash = mix64(p.seqHash ^ l.seqHash)
		p.reads += l.reads
		p.raHits += l.raHits
	}
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })

	if traced {
		tf := &traceFile{Workload: w.name, Seed: cfg.seed, Before: before, After: after}
		for _, l := range d.lanes {
			t := l.tr
			t.mu.Lock()
			p.sends += t.sent
			p.selfNS += t.selfNS
			p.rtts = append(p.rtts, t.rtts...)
			tf.SampleEvery = append(tf.SampleEvery, t.stride)
			tf.Spans = append(tf.Spans, t.spans...)
			t.mu.Unlock()
		}
		sort.Slice(p.rtts, func(i, j int) bool { return p.rtts[i] < p.rtts[j] })
		if err := writeTrace(cfg.outDir, tf); err != nil {
			return nil, err
		}
	}

	// Output correctness, untimed. A violation fails the run.
	for _, l := range d.lanes {
		p.violations = append(p.violations, l.r.verify(d)...)
	}
	return p, nil
}

// percentile returns the exact q-quantile of sorted samples (nearest
// rank), or 0 when there are none.
func percentile[T uint32 | time.Duration](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}
