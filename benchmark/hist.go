package main

import "math/bits"

// hist is the harness's latency histogram: fixed memory, log-linear buckets.
// Each power of two is cut into 128 equal sub-buckets, so a bucket is at most
// 1/128 (0.78 %) of its lower bound wide and a quantile read from it is within
// 1 % of the exact sample quantile. The repo's obs.Histogram has one bucket per
// power of two (a p50 of 16777215 ns in the committed mc_* records is such a
// bucket bound), which is why the benchmark keeps its own.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxExp  = 28 // values up to 2^(histSubBits+1+histMaxExp) ns ≈ 68 s
	histBuckets = (histMaxExp + 2) << histSubBits
)

type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    uint64
}

func histIndex(v uint64) int {
	e := bits.Len64(v) - histSubBits - 1
	if e <= 0 {
		return int(v) // below 2*histSub every value has its own bucket
	}
	if e > histMaxExp {
		return histBuckets - 1
	}
	return e<<histSubBits + int(v>>uint(e))
}

// histBounds returns the lower bound and the width of bucket i.
func histBounds(i int) (lo, width uint64) {
	if i < 2*histSub {
		return uint64(i), 1
	}
	e := uint(i>>histSubBits) - 1
	return (uint64(i&(histSub-1)) + histSub) << e, 1 << e
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
	h.sum += uint64(ns)
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the q-quantile in ns, interpolated linearly inside the
// bucket that holds it, so two runs do not read the same bucket bound.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	last := 0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		last = i
		if cum+float64(c) >= rank {
			lo, w := histBounds(i)
			return float64(lo) + (rank-cum)/float64(c)*float64(w)
		}
		cum += float64(c)
	}
	lo, w := histBounds(last)
	return float64(lo + w)
}
