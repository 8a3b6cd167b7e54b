// Package allocs measures the heap allocations of a call, for the tests
// that hold the data path's allocation counts.
package allocs

import "runtime"

// PerCall returns the mean number of heap allocations one call of f
// makes, over runs calls after one warm-up call, at GOMAXPROCS 1. It is
// testing.AllocsPerRun without the rounding down: a leak of one object
// per call shows as 1, where the buffers the race detector makes sync.Pool
// drop at random show as a fraction — see Slack.
func PerCall(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
