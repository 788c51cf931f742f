package main

import "math/bits"

// hist is a log-linear latency histogram: exact below 128ns, then 128
// sub-buckets per power of two, each under 0.8% wide. Its size is fixed
// however many ops a run completes, so the live-heap metric measures the
// program and not the benchmark's own sample store.
type hist struct {
	counts [histBuckets]int64
	n      int64
}

const (
	histSub     = 128
	histBuckets = histSub * 36 // up to 2^36 ns, about 69s
)

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 8 // ns>>e is in [128, 256)
	i := (e+1)*histSub + int(ns>>e) - histSub
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// histRange returns bucket i's bounds [lo, hi) in nanoseconds.
func histRange(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	e := i/histSub - 1
	m := int64(i%histSub + histSub)
	return float64(m << e), float64((m + 1) << e)
}

func (h *hist) add(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside its bucket, and how many samples lie in buckets above it.
func (h *hist) quantile(q float64) (ns float64, above int64) {
	target := q * float64(h.n)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			lo, hi := histRange(i)
			return lo + (hi-lo)*(target-float64(cum))/float64(c), h.n - cum - c
		}
		cum += c
	}
	return 0, 0
}
