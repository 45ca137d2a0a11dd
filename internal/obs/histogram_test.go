package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestHistogramEmptySnapshot(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Mean != 0 || s.P50 != 0 || s.P95 != 0 || s.P99 != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(5 * time.Nanosecond)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 5 || s.Mean != 5 || s.Max != 5 {
		t.Fatalf("single-sample snapshot = %+v", s)
	}
	// Below 256 ns every value has its own bucket, and a quantile is clamped
	// to Max: never below the sample, never above the observed maximum.
	for _, q := range []time.Duration{s.P50, s.P95, s.P99} {
		if q < 5 || q > s.Max {
			t.Fatalf("quantile %v outside [5ns, Max]: %+v", q, s)
		}
	}
}

func TestHistogramNegativeDurationClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Hour)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Mean != 0 || s.P50 != 0 || s.Max != 0 {
		t.Fatalf("negative observation snapshot = %+v", s)
	}
}

func TestHistogramMaxBucketSaturation(t *testing.T) {
	var h Histogram
	// 2^39 ns and far beyond all land in the last bucket.
	huge := []time.Duration{
		time.Duration(1) << 39,
		time.Duration(1) << 45,
		time.Duration(math.MaxInt64),
	}
	for _, d := range huge {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Buckets[HistogramBuckets-1] != uint64(len(huge)) {
		t.Fatalf("last bucket = %d, want %d", s.Buckets[HistogramBuckets-1], len(huge))
	}
	if s.Count != uint64(len(huge)) {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != time.Duration(math.MaxInt64) {
		t.Fatalf("max = %v", s.Max)
	}
	if s.P50 > s.Max || s.P99 > s.Max {
		t.Fatalf("quantiles exceed max: %+v", s)
	}
	if s.P50 < time.Duration(1)<<39 {
		t.Fatalf("p50 = %v below the saturated bucket's range", s.P50)
	}
}

func TestHistogramQuantileMonotonicityUnderConcurrentObserve(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed
			for {
				// xorshift spread over ~6 decades of nanoseconds. Observe
				// before checking stop so every goroutine contributes at
				// least one sample even if stop closes immediately.
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				h.Observe(time.Duration(x % 1_000_000_000))
				select {
				case <-stop:
					return
				default:
				}
			}
		}(uint64(g)*0x9E3779B9 + 1)
	}
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		if !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
			t.Fatalf("quantiles not monotonic: P50=%v P95=%v P99=%v Max=%v", s.P50, s.P95, s.P99, s.Max)
		}
		if s.Count > 0 && s.Mean > s.Max {
			t.Fatalf("mean %v exceeds max %v", s.Mean, s.Max)
		}
	}
	close(stop)
	wg.Wait()
	// Quiescent consistency: count equals the bucket sum and mean is exact.
	s := h.Snapshot()
	var total uint64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d after quiescence", total, s.Count)
	}
	if want := time.Duration(uint64(s.Sum) / s.Count); s.Mean != want {
		t.Fatalf("mean = %v, want %v", s.Mean, want)
	}
}

// TestHistogramQuantileAccuracy checks P50, P95 and P99 against the exact
// nearest-rank quantiles of seeded sample sets: each must be within 1 % (or
// 1 ns) of the exact value.
func TestHistogramQuantileAccuracy(t *testing.T) {
	const n = 20000
	r := rand.New(rand.NewSource(7))
	gen := map[string]func() time.Duration{
		"uniform 100ns-10ms": func() time.Duration {
			return 100 + time.Duration(r.Int63n(int64(10*time.Millisecond-100)))
		},
		"log-normal": func() time.Duration {
			return time.Duration(math.Exp(math.Log(50e3) + 1.5*r.NormFloat64()))
		},
		"bimodal 1us/1ms": func() time.Duration {
			mode := time.Microsecond
			if r.Intn(10) == 0 {
				mode = time.Millisecond
			}
			return time.Duration(float64(mode) * (1 + 0.05*r.NormFloat64()))
		},
		"all-equal": func() time.Duration { return 12345 },
	}
	for _, name := range []string{"uniform 100ns-10ms", "log-normal", "bimodal 1us/1ms", "all-equal"} {
		var h Histogram
		vals := make([]time.Duration, n)
		for i := range vals {
			vals[i] = gen[name]()
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s := h.Snapshot()
		for _, c := range []struct {
			q   float64
			got time.Duration
		}{{0.50, s.P50}, {0.95, s.P95}, {0.99, s.P99}} {
			exact := vals[int(math.Ceil(c.q*n))-1]
			if err := math.Abs(float64(c.got - exact)); err > max(1, 0.01*float64(exact)) {
				t.Errorf("%s: p%v = %v, exact %v (error %.2f %%)", name, c.q*100, c.got, exact, 100*err/float64(exact))
			}
		}
	}
}

// BenchmarkHistogramObserve measures one Observe of a latency spread over
// 100 ns-10 ms, from one goroutine and from GOMAXPROCS goroutines sharing
// the histogram.
func BenchmarkHistogramObserve(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vals := make([]time.Duration, 1024)
	for i := range vals {
		vals[i] = 100 + time.Duration(r.Int63n(int64(10*time.Millisecond)))
	}
	b.Run("serial", func(b *testing.B) {
		var h Histogram
		for i := 0; i < b.N; i++ {
			h.Observe(vals[i&1023])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var h Histogram
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				h.Observe(vals[i&1023])
				i++
			}
		})
	})
}

// BenchmarkHistogramSnapshot measures one Snapshot (bucket copy and the
// three quantiles) of a populated histogram.
func BenchmarkHistogramSnapshot(b *testing.B) {
	var h Histogram
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		h.Observe(100 + time.Duration(r.Int63n(int64(10*time.Millisecond))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = h.Snapshot()
	}
}

var snapshotSink HistogramSnapshot
