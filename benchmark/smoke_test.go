package main

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// TestBenchmarkJSON pins the BENCHMARK.json at the repository root to the
// tables this package defines, and checks the limits the driver's contract
// puts on the file.
func TestBenchmarkJSON(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := describe(); !bytes.Equal(file, want) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate with: go run ./benchmark -describe > BENCHMARK.json")
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, contract wants 2..8", len(workloads))
	}
	seen := map[string]bool{}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
		seen[w.name] = true
	}
	setup := false
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		setup = setup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("name %q used twice", d.name)
		}
		seen[d.name] = true
		if len(d.name) > 64 || len(d.unit) > 16 || (d.better != "lower" && d.better != "higher") {
			t.Errorf("metric %+v breaks the contract's limits", d)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(endToEnd), len(perLayer))
	}
}

// TestSmoke runs all six workloads and the traced pass at -quick scale and
// checks that every metric BENCHMARK.json names comes out finite — and, for
// the end-to-end ones, non-zero — with no failed op.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	spans := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := newEnv(3, true)
			var res result
			var err error
			defs := endToEnd
			if traced {
				defs = perLayer
				res, err = runTraced(w, e, 0.3, spans)
			} else {
				res, err = runUntraced(w, e, 0.3)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.correct() {
				t.Errorf("%s traced=%v: %d of %d ops failed", w.name, traced, res.t.failed, res.t.attempted)
			}
			if len(res.metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d defined", w.name, traced, len(res.metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || d.unit == "" {
					t.Errorf("%s: %s = %v (reported %v)", w.name, d.name, v, ok)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.name, d.name, v)
				}
			}
		}
		if _, err := os.Stat(spans + "/" + w.name + ".json"); err != nil {
			t.Errorf("%s: traced pass left no span file: %v", w.name, err)
		}
	}
}
