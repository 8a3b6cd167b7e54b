package main

import (
	"sort"
	"sync"
	"time"
)

// The reference box is a shared virtual machine whose effective speed
// moves by a third for minutes at a time: fourteen identical ddwrite runs
// gave 392 to 647 MiB/s raw. A benchmark that reports raw times there
// cannot tell a 10 % regression from the neighbours' load. So every
// slice of a timed phase is bracketed by a reference kernel — a fixed
// piece of standard-library work that shares no code with this
// repository — run on all lanes at once while they are quiet, and every
// end-to-end time is reported scaled to the speed the host showed around
// it. The kernel was chosen by measurement: across such runs the
// logarithm of the sort kernel's time tracked the logarithm of raw
// throughput with slope −1.0 to −1.3 and correlation −0.8 to −0.93 on
// untar, ddwrite and ddread (a dependent-multiply loop and a plain memcpy
// tracked the host too, but with slopes of −3 and −1.5: they slow down
// far less than real code does), and scaling by it cut the run-to-run
// interquartile spread of ops_per_s from 19/11/22 % to 5/7/9 %.

// refKernelSeconds is the kernel's time on the reference box when its
// neighbours are quiet. A metric is scaled by measured ÷ reference, so on
// a quiet host scaled and raw values agree; the constant only sets the
// scale and is the same on both sides of any comparison.
const refKernelSeconds = 0.014

// kernelInts sizes the kernel to take a good ten milliseconds: long
// enough to time well, short enough that 21 of them are under 2 % of a
// 20 s phase.
const kernelInts = 150_000

// kernel is the reference work: fill a slice with the same pseudo-random
// ints every time and sort it. It is branchy and misses cache the way
// request handling does, which is why it slows down with the host in
// proportion.
type kernel struct{ buf []int }

// newKernel sizes the kernel by scale, which is 1 except in the smoke
// test: there the kernel is tiny and the host factor means nothing.
func newKernel(scale float64) *kernel { return &kernel{buf: make([]int, scaled(kernelInts, scale, 1))} }

// run returns the kernel's wall time in seconds.
func (k *kernel) run() float64 {
	t0 := time.Now()
	x := uint64(12345)
	for i := range k.buf {
		x = x*6364136223846793005 + 1442695040888963407
		k.buf[i] = int(x >> 20)
	}
	sort.Ints(k.buf)
	return time.Since(t0).Seconds()
}

// hostFactor is how much slower than the reference the host ran, judged
// by kernel times taken around the interval in question.
func hostFactor(kernelSeconds ...float64) float64 {
	sum := 0.0
	for _, s := range kernelSeconds {
		sum += s
	}
	return sum / float64(len(kernelSeconds)) / refKernelSeconds
}

// idleHostFactor runs one kernel per lane at once, as the lanes do
// between slices, and returns the host factor they show. Set-up uses it:
// no lane is running then.
func idleHostFactor(scale float64) float64 {
	times := make([]float64, numLanes)
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			times[i] = newKernel(scale).run()
		}(i)
	}
	wg.Wait()
	return hostFactor(times...)
}

// barrier is a reusable rendezvous of the lanes. The last lane to arrive
// runs last (if not nil) before any lane is released.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	round   int
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait(last func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.waiting++
	if b.waiting == b.parties {
		if last != nil {
			last()
		}
		b.waiting = 0
		b.round++
		b.cond.Broadcast()
		return
	}
	for round := b.round; round == b.round; {
		b.cond.Wait()
	}
}
