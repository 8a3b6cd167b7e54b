//go:build race

package allocs

// Slack is how far a call's mean allocation count may exceed the baseline
// a test holds it to. Under the race detector sync.Pool drops a quarter of
// what it is given, so each pooled object a call draws costs it an
// allocation a quarter of the time, and every such allocation brings the
// next collection — which empties the pools — nearer: a call that draws
// larger buffers than its baseline misses more often. A baseline that
// draws from the same pools carries most of the misses; what is left
// varies by up to about half an allocation per call, so under the race
// detector a guard catches only more than one allocation per call, and
// without it (norace.go) one in ten calls.
const Slack = 1.0

// Race reports whether the race detector is on: a count held absolutely,
// not against a baseline drawing from the same pools, holds only without it.
const Race = true
