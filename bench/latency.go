package main

import (
	"math/bits"
	"time"
)

// Latency histogram geometry: 2^latSubBits linear sub-buckets per power of
// two, so a bucket spans at most 0.8% of its values, up to 2^latTopBit ns
// (about 18 minutes; longer values land in the last bucket).
const (
	latSubBits = 7
	latSub     = 1 << latSubBits
	latTopBit  = 40
	latBuckets = (latTopBit - latSubBits + 1) * latSub
)

// latencyHist is a log-linear histogram of nanosecond durations. It is
// finer than internal/stats.Histogram, and its quantiles interpolate
// inside the bucket that holds them: internal/stats reports a bucket's
// midpoint, so a percentile that stays inside one 3% bucket reads the same
// on every run. It is not safe for concurrent use.
type latencyHist struct {
	n      uint64
	counts [latBuckets]uint64
}

func latBucket(v uint64) int {
	if v < latSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1
	if exp >= latTopBit {
		return latBuckets - 1
	}
	return (exp-latSubBits+1)<<latSubBits + int(v>>(exp-latSubBits)) - latSub
}

// latBucketRange returns the lowest value of bucket i and its width.
func latBucketRange(i int) (low, width float64) {
	if i < latSub {
		return float64(i), 1
	}
	shift := i>>latSubBits - 1
	return float64(uint64(latSub+i&(latSub-1)) << shift), float64(uint64(1) << shift)
}

func (h *latencyHist) observe(d time.Duration) {
	h.counts[latBucket(uint64(max(d, 0)))]++
	h.n++
}

func (h *latencyHist) count() uint64 { return h.n }

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside its bucket; 0 for an empty histogram.
func (h *latencyHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			low, width := latBucketRange(i)
			return low + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return 0
}
