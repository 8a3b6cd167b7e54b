//go:build !race

package allocs

// Slack is how far a call's mean allocation count may exceed the baseline
// a test holds it to (see race.go): a call that allocates once in ten
// calls exceeds it.
const Slack = 0.1

// Race reports whether the race detector is on (see race.go).
const Race = false
