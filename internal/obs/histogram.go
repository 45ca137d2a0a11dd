package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free latency histogram with log-linear nanosecond
// buckets: each power of two is cut into 128 equal sub-buckets, so a bucket is
// at most 1/128 (0.78 %) of its lower bound wide and a quantile read from it is
// within 1 % of the exact sample quantile. Every value below 2^39 ns (~9
// minutes) has such a fine bucket; one overflow bucket counts the rest. The
// index and the interpolation are those of the benchmark harness's histogram
// (benchmark/hist.go), so the two read the same quantile off the same samples.
//
// It was generalized out of internal/kvserver so every subsystem shares one
// implementation; kvserver aliases this type.
type Histogram struct {
	count   atomic.Uint64
	sumNS   atomic.Uint64
	maxNS   atomic.Uint64
	buckets [HistogramBuckets]atomic.Uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxExp  = 31 // fine buckets cover values up to 2^(histSubBits+1+histMaxExp) - 1 = 2^39 - 1 ns
	histFine    = (histMaxExp + 2) << histSubBits
	// histOctaves is the number of power-of-two ranges the fine buckets
	// fall into: bits.Len64 of a fine value is 0 … 39.
	histOctaves = histSubBits + histMaxExp + 2

	// HistogramBuckets is the number of buckets: the fine ones, then the
	// overflow bucket (2^39 ns and above) last.
	HistogramBuckets = histFine + 1
)

// histIndex returns the bucket of a value in nanoseconds.
func histIndex(v uint64) int {
	e := bits.Len64(v) - histSubBits - 1
	if e <= 0 {
		return int(v) // below 2*histSub every value has its own bucket
	}
	if e > histMaxExp {
		return histFine
	}
	return e<<histSubBits + int(v>>uint(e))
}

// histBounds returns the lower bound and the width of fine bucket i.
func histBounds(i int) (lo, width uint64) {
	if i < 2*histSub {
		return uint64(i), 1
	}
	e := uint(i>>histSubBits) - 1
	return (uint64(i&(histSub-1)) + histSub) << e, 1 << e
}

// Observe records one latency sample. Negative durations (a clock step
// between the caller's two time reads) are clamped to zero. The maximum,
// the bucket and the count land before the sum, which Snapshot relies on.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d.Nanoseconds())
	}
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[histIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
}

// HistogramSnapshot is a point-in-time summary of a Histogram. Quantiles are
// read by Quantile, so they are within 1 % of the exact sample quantile below
// 2^39 ns and monotonic: P50 <= P95 <= P99 <= Max whenever Count > 0.
type HistogramSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Mean    time.Duration
	P50     time.Duration
	P95     time.Duration
	P99     time.Duration
	Max     time.Duration
	Buckets []uint64 // HistogramBuckets counts, the overflow bucket last
}

// Snapshot summarizes the histogram. It reads in the reverse of Observe's
// order — sum, count, buckets, maximum — so under concurrent Observe calls
// every summed sample is counted and every counted sample's bucket and value
// are visible: Mean <= Max, and the rank a quantile seeks is in the buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Sum: time.Duration(h.sumNS.Load())}
	s.Count = h.count.Load()
	s.Buckets = make([]uint64, HistogramBuckets)
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Max = time.Duration(h.maxNS.Load())
	if s.Count == 0 {
		return s
	}
	s.Mean = time.Duration(uint64(s.Sum) / s.Count)
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile returns the q-quantile of the snapshot's Count samples: the
// bucket holding rank q·Count, interpolated linearly across its width and
// clamped to Max so a lone sample cannot push a quantile above it. A rank in
// the overflow bucket, which has no width, answers Max.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			if i == histFine {
				return s.Max
			}
			lo, w := histBounds(i)
			return min(time.Duration(float64(lo)+(rank-cum)/float64(c)*float64(w)), s.Max)
		}
		cum += float64(c)
	}
	return s.Max
}
