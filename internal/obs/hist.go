// Package obs is the always-on observability layer of the live Slice
// stack: lock-free power-of-two latency histograms, named registries with
// text and JSON exposition, and in every registry a ring of events keyed
// by call identity, which the collector stitches into one call's path
// through every role (µproxy stages, directory servers and their
// journals, small-file servers, storage nodes, the coordinator).
//
// The paper's evaluation is entirely about where time goes — Table 3
// breaks down per-request µproxy CPU cost and Figures 4–7 are latency
// curves — so the live system keeps the same accounting cheap enough to
// leave on: recording a sample is a single atomic add, and an event,
// written for 1 call in 16, allocates nothing.
package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed number of power-of-two histogram buckets.
// Bucket 0 holds zero samples; bucket i (i ≥ 1) holds samples in
// [2^(i-1), 2^i). The last bucket additionally absorbs everything at or
// above 2^(NumBuckets-2): at nanosecond resolution that is ≈ 39 hours,
// far beyond any request latency worth distinguishing.
const NumBuckets = 48

// Histogram is a fixed-size, mergeable, lock-free latency histogram.
// Record is one atomic add; there is no separate count or sum field to
// keep the hot-path cost at exactly one contended cache line per sample.
// The zero value is ready to use.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
}

// bucketIndex maps a sample to its bucket: the position of the highest
// set bit, so buckets are powers of two.
func bucketIndex(v uint64) int {
	i := bits.Len64(v)
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// BucketUpper returns the largest value bucket i spans (0 for bucket 0).
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1<<uint(i) - 1
}

// Record adds one sample. It is safe for any number of concurrent
// callers and costs one atomic add.
func (h *Histogram) Record(v uint64) {
	h.buckets[bucketIndex(v)].Add(1)
}

// RecordSince records the elapsed nanoseconds since t0.
func (h *Histogram) RecordSince(t0 time.Time) {
	h.Record(uint64(time.Since(t0)))
}

// Count returns the total number of recorded samples.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Snapshot copies the bucket counts. Buckets are loaded individually, so
// a snapshot taken while writers are active is approximate (each bucket
// is internally consistent; the total may straddle in-flight samples).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is an immutable copy of a histogram, the unit of merging
// and percentile extraction.
type HistSnapshot struct {
	Buckets [NumBuckets]uint64
}

// Count returns the total samples in the snapshot.
func (s HistSnapshot) Count() uint64 {
	var n uint64
	for _, b := range s.Buckets {
		n += b
	}
	return n
}

// Merge adds other's buckets into s. Snapshots from any number of
// histograms (e.g. one per ensemble component) merge associatively.
func (s *HistSnapshot) Merge(other HistSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
}

// Percentile returns the upper bound of the bucket containing the q-th
// percentile sample (q in [0,1]). With power-of-two buckets the result
// is exact to within a factor of two, which is what latency analysis
// needs; it returns 0 for an empty snapshot.
func (s HistSnapshot) Percentile(q float64) uint64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample, 1-based: ceil(q * total), at least 1.
	rank := uint64(q * float64(total))
	if float64(rank) < q*float64(total) || rank == 0 {
		rank++
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// Max returns the upper bound of the highest non-empty bucket.
func (s HistSnapshot) Max() uint64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return BucketUpper(i)
		}
	}
	return 0
}

// Mean estimates the arithmetic mean using each bucket's midpoint. It is
// approximate by construction (buckets are a factor of two wide).
func (s HistSnapshot) Mean() float64 {
	var sum, n float64
	for i, b := range s.Buckets {
		if b == 0 {
			continue
		}
		var mid float64
		if i > 0 {
			lo := float64(uint64(1) << uint(i-1))
			mid = lo * 1.5
		}
		sum += mid * float64(b)
		n += float64(b)
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// Nanos formats a nanosecond quantity compactly for exposition.
func Nanos(ns uint64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
