package crashtest

// Concurrent-history check against the concurrent FPTree (optimistic
// version-lock descent, the software stand-in for the paper's HTM leaf
// protection) under its default controller; adaptive_test.go repeats it under
// a fast-window and an AlwaysFallback controller. Run with -race in CI.

import (
	"testing"

	"fptree/internal/core"
)

func newCTree(tb testing.TB) *core.CTree {
	tb.Helper()
	pool := newTestPool()
	tr, err := core.CCreate(pool, core.Config{LeafCap: 16, InnerFanout: 8, GroupSize: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func TestConcurrentHistoryOptimistic(t *testing.T) {
	if n := ConcurrentHistory(t, newCTree(t), ConcurrentOptions{Workers: 4, OpsPerWorker: 1500, Seed: 1}); n == 0 {
		t.Fatal("workload performed no shared increments")
	}
}
