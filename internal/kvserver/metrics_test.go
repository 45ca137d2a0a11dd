package kvserver

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fptree/internal/obs"
)

func TestHistogramQuantiles(t *testing.T) {
	var h obs.Histogram
	// 90 fast ops, 10 slow ops.
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	// Quantiles are power-of-two bucket upper bounds: conservative, never
	// below the true value, never more than 2x above it.
	if s.P50 < 1*time.Microsecond || s.P50 >= 2*time.Microsecond {
		t.Fatalf("p50 = %v", s.P50)
	}
	if s.P99 < 1*time.Millisecond || s.P99 >= 2*time.Millisecond {
		t.Fatalf("p99 = %v", s.P99)
	}
	if s.Max < 1*time.Millisecond {
		t.Fatalf("max = %v", s.Max)
	}
	if s.Mean <= 1*time.Microsecond || s.Mean >= 1*time.Millisecond {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestHistogramEmptyAndZero(t *testing.T) {
	var h obs.Histogram
	if s := h.Snapshot(); s.Count != 0 || s.P99 != 0 || s.Mean != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	h.Observe(0)
	h.Observe(-time.Second) // clamped, must not panic or corrupt
	if s := h.Snapshot(); s.Count != 2 || s.P50 != 0 {
		t.Fatalf("zero snapshot = %+v", s)
	}
}

func TestMetricsWriteTo(t *testing.T) {
	var m Metrics
	m.CmdSet.Add(3)
	m.SetLatency.Observe(time.Millisecond)
	var b strings.Builder
	m.writeTo(&b, "\n")
	out := b.String()
	for _, want := range []string{"STAT cmd_set 3\n", "STAT set_latency_count 1\n", "STAT curr_connections 0\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("writeTo output missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsTablesCoverEveryField guards against drift between the Metrics
// struct and the two tables `stats` and the registry are rendered from: every
// atomic.Uint64 field is one row of counters(), every histogram one row of
// latencies(), each exactly once, and both renderings carry the live value
// under the row's names.
func TestMetricsTablesCoverEveryField(t *testing.T) {
	var m Metrics
	listed := map[interface{}]int{}
	for _, c := range m.counters() {
		listed[c.src]++
	}
	for _, l := range m.latencies() {
		listed[l.h]++
	}
	mv := reflect.ValueOf(&m).Elem()
	for i := 0; i < mv.NumField(); i++ {
		f := mv.Field(i)
		switch f.Type() {
		case reflect.TypeOf(atomic.Uint64{}), reflect.TypeOf(obs.Histogram{}):
			if n := listed[f.Addr().Interface()]; n != 1 {
				t.Errorf("Metrics.%s is listed %d times in the tables", mv.Type().Field(i).Name, n)
			}
		}
	}

	for i, c := range m.counters() {
		c.src.Store(uint64(100 + i))
	}
	var b strings.Builder
	m.writeTo(&b, "\n")
	reg := obs.NewRegistry()
	m.RegisterMetrics(reg, "memkv")
	snap := reg.Snapshot()
	for i, c := range m.counters() {
		if want := fmt.Sprintf("STAT %s %d\n", c.stat, 100+i); !strings.Contains(b.String(), want) {
			t.Errorf("stats output has no %q line", want)
		}
		if got, ok := snap["memkv_"+c.series]; !ok || got != float64(100+i) {
			t.Errorf("memkv_%s = %v,%v, want %d", c.series, got, ok, 100+i)
		}
	}
}
