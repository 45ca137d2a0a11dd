package bench

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
)

func TestYCSBChooserRanges(t *testing.T) {
	var count atomic.Uint64
	count.Store(1000)
	for _, dist := range []string{"zipfian", "latest", "uniform"} {
		c := newYCSBChooser(1, dist, 2000, &count)
		for i := 0; i < 5000; i++ {
			if idx := c.pick(); idx >= count.Load() {
				t.Fatalf("%s: picked index %d with only %d records", dist, idx, count.Load())
			}
		}
	}
	// latest must actually skew to recent indices.
	c := newYCSBChooser(2, "latest", 2000, &count)
	recent := 0
	for i := 0; i < 2000; i++ {
		if c.pick() >= 900 {
			recent++
		}
	}
	if recent < 1200 {
		t.Fatalf("latest chooser picked only %d/2000 from the newest 10%%", recent)
	}
}

func TestYCSBKeyInjective(t *testing.T) {
	seen := make(map[uint64]bool, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		k := ycsbKey(i)
		if seen[k] {
			t.Fatalf("ycsbKey collision at index %d", i)
		}
		seen[k] = true
	}
}

func TestYCSBBenchAllWorkloads(t *testing.T) {
	cfg := YCSBConfig{
		Records: 2000,
		Ops:     2000,
		Threads: 2,
		ScanLen: 50,
	}
	var out bytes.Buffer
	// A nil error is the scan verification: workload E checks every value
	// its iterator emits and fails the run on a mismatch.
	results, err := YCSBBench(&out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dists := map[string]string{"ycsb-a": "zipfian", "ycsb-b": "zipfian", "ycsb-c": "zipfian",
		"ycsb-d": "latest", "ycsb-e": "zipfian", "ycsb-f": "zipfian"}
	if len(results) != len(dists) {
		t.Fatalf("got %d results, want %d: %+v", len(results), len(dists), results)
	}
	for _, r := range results {
		if dists[r.Workload] != r.KeyDist {
			t.Errorf("%s ran under key distribution %q, want %q", r.Workload, r.KeyDist, dists[r.Workload])
		}
		delete(dists, r.Workload)
		if r.Tree != "FPTreeC" || r.Ops != cfg.Ops || r.Threads != cfg.Threads || r.OpsPerSec <= 0 ||
			r.P50NS <= 0 || r.P50NS > r.P99NS {
			t.Errorf("malformed result: %+v", r)
		}
		if !strings.Contains(out.String(), r.Workload) {
			t.Errorf("no printed row for %s:\n%s", r.Workload, out.String())
		}
	}
	for wl := range dists {
		t.Errorf("no result for %s", wl)
	}
}

func TestYCSBBenchRejectsUnknownWorkload(t *testing.T) {
	var out bytes.Buffer
	_, err := YCSBBench(&out, YCSBConfig{Workloads: []string{"Z"}, Records: 10, Ops: 10})
	if err == nil || !strings.Contains(err.Error(), "unknown YCSB workload") {
		t.Fatalf("want unknown-workload error, got %v", err)
	}
}
