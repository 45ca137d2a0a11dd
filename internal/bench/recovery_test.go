package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestRecoveryBench drives the recovery workload end-to-end at a small size
// and checks every returned record for the consistency a reader of the
// printed table relies on.
func TestRecoveryBench(t *testing.T) {
	var out bytes.Buffer
	results, err := RecoveryBench(&out, RecoveryConfig{
		Sizes:   []int{3000},
		Workers: []int{1, 2},
		Var:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One record per size x {fixed, var} x workers, in that order.
	want := []struct {
		tree    string
		workers int
	}{{"FPTree", 1}, {"FPTree", 2}, {"FPTreeVar", 1}, {"FPTreeVar", 2}}
	if len(results) != len(want) {
		t.Fatalf("got %d records, want %d: %+v", len(results), len(want), results)
	}
	for i, r := range results {
		if r.Tree != want[i].tree || r.Workers != want[i].workers || r.Keys != 3000 || r.FileBacked {
			t.Errorf("record %d is %+v, want %s at %d workers, 3000 keys", i, r, want[i].tree, want[i].workers)
		}
		if r.RecoveryMS <= 0 || r.RebuildMS < 0 || r.RebuildMS > r.RecoveryMS {
			t.Errorf("record %d has inconsistent timings: %+v", i, r)
		}
		if r.LeavesScanned == 0 || r.SpeedupVs1 <= 0 {
			t.Errorf("record %d is missing scan counters: %+v", i, r)
		}
		if r.Workers == 1 && r.SpeedupVs1 != 1 {
			t.Errorf("record %d: the one-worker baseline has speedup %v", i, r.SpeedupVs1)
		}
	}
	for _, want := range []string{"FPTree ", "FPTreeVar", "workers=1", "workers=2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary output missing %q:\n%s", want, out.String())
		}
	}
}
