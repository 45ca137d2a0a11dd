package crashtest

// Concurrent-history check against the concurrent FPTree (optimistic
// version-lock descent, the software stand-in for the paper's HTM leaf
// protection) under its default controller, with leaf groups of 4 and
// without; adaptive_test.go repeats it under a fast-window and an
// AlwaysFallback controller. Run with -race in CI.

import (
	"testing"

	"fptree/internal/core"
)

// historyGroupSizes are the leaf-group sizes the concurrent histories run
// at, named as their subtests: a tree that splits into leaf groups, and one
// that allocates each leaf on its own.
var historyGroupSizes = []struct {
	name string
	size int
}{{"grouped", 4}, {"ungrouped", 0}}

func newCTree(tb testing.TB, groupSize int) *core.CTree {
	tb.Helper()
	pool := newTestPool()
	tr, err := core.CCreate(pool, core.Config{LeafCap: 16, InnerFanout: 8, GroupSize: groupSize})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func TestConcurrentHistoryOptimistic(t *testing.T) {
	for _, g := range historyGroupSizes {
		t.Run(g.name, func(t *testing.T) {
			if n := ConcurrentHistory(t, newCTree(t, g.size), ConcurrentOptions{Workers: 4, OpsPerWorker: 1500, Seed: 1}); n == 0 {
				t.Fatal("workload performed no shared increments")
			}
		})
	}
}
