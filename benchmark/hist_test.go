package main

import (
	"math"
	"sort"
	"testing"
)

// TestHistQuantileError pins the ≤ 1 % relative-error claim against exact
// percentiles of a seeded, heavy-tailed sample spanning 100 ns … 100 ms.
func TestHistQuantileError(t *testing.T) {
	r := rng{s: 42}
	const n = 200000
	var h hist
	vals := make([]float64, n)
	for i := range vals {
		v := math.Exp(math.Log(100) + r.float()*r.float()*math.Log(1e6))
		vals[i] = math.Floor(v)
		h.add(int64(vals[i]))
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(math.Ceil(q*n))-1]
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.01 {
			t.Errorf("q=%v: hist %.1f exact %.1f rel err %.4f > 1%%", q, got, exact, rel)
		}
	}
	if h.n != n {
		t.Fatalf("count %d want %d", h.n, n)
	}
}

func TestHistBoundsRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 255, 256, 257, 1000, 65535, 65536, 1 << 30, 1<<36 - 1} {
		i := histIndex(v)
		lo, w := histBounds(i)
		if v < lo || v >= lo+w {
			t.Errorf("v=%d bucket %d = [%d,%d)", v, i, lo, lo+w)
		}
		if lo >= 256 && float64(w)/float64(lo) > 1.0/histSub {
			t.Errorf("bucket %d too wide: %d/%d", i, w, lo)
		}
	}
	if i := histIndex(1 << 40); i != histBuckets-1 {
		t.Errorf("overflow value landed in bucket %d", i)
	}
}
