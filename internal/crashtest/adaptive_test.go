package crashtest

// Crash-consistency under the retry controller: the controller only decides
// which writers take the global fallback lock — every persistence action
// still happens inside the same leaf-lock critical sections in the same
// order. These tests prove that by running the concurrent-history workload
// with a controller attached (a budget of one, so optimistic and fallback
// writes mix, and AlwaysFallback, which drives every write through the
// global fallback lock), then crashing the pool mid-life and recovering: the
// recovered tree must pass full invariant checks and carry exactly the
// committed pre-crash contents.

import (
	"runtime"
	"sync/atomic"
	"testing"

	"fptree/internal/core"
	"fptree/internal/htm"
)

// countedWrites counts the write operations that pass through it.
type countedWrites struct {
	*core.CTree
	writes atomic.Uint64
}

func (c *countedWrites) Insert(k, v uint64) error {
	c.writes.Add(1)
	return c.CTree.Insert(k, v)
}

func (c *countedWrites) Update(k, v uint64) (bool, error) {
	c.writes.Add(1)
	return c.CTree.Update(k, v)
}

func (c *countedWrites) Delete(k uint64) (bool, error) {
	c.writes.Add(1)
	return c.CTree.Delete(k)
}

func crashUnderController(t *testing.T, cfg htm.AdaptiveConfig) {
	t.Helper()
	if !cfg.AlwaysFallback && runtime.GOMAXPROCS(0) < 2 {
		t.Skip("workers that run one at a time never conflict, so no write falls back")
	}
	for _, g := range historyGroupSizes {
		t.Run(g.name, func(t *testing.T) { crashUnderControllerGroups(t, cfg, g.size) })
	}
}

func crashUnderControllerGroups(t *testing.T, cfg htm.AdaptiveConfig, groupSize int) {
	// A history with no conflict is not the history under test: run a fresh
	// one until the controller sent some write through the fallback lock.
	for round := 1; ; round++ {
		pool := newTestPool()
		tr, err := core.CCreate(pool, core.Config{LeafCap: 16, InnerFanout: 8, GroupSize: groupSize})
		if err != nil {
			t.Fatal(err)
		}
		tr.SetController(htm.NewAdaptiveController(cfg))
		cw := &countedWrites{CTree: tr}
		if n := ConcurrentHistory(t, cw, ConcurrentOptions{Workers: 4, OpsPerWorker: 800, Seed: 11}); n == 0 {
			t.Fatal("workload performed no shared increments")
		}
		writes, fallbacks := cw.writes.Load(), tr.Stats.Fallbacks.Load()
		switch {
		case cfg.AlwaysFallback && fallbacks != writes:
			t.Fatalf("AlwaysFallback: %d fallback entries for %d writes", fallbacks, writes)
		case cfg.AlwaysFallback:
		case fallbacks == 0:
			t.Logf("round %d: no write took the fallback lock (%d aborts); running another", round, tr.Stats.Aborts.Load())
			continue
		case fallbacks >= writes:
			t.Fatalf("%d fallback entries for %d writes: no write stayed optimistic", fallbacks, writes)
		}
		t.Logf("%d writes, %d fallback entries, %d aborts", writes, fallbacks, tr.Stats.Aborts.Load())

		// Snapshot the committed contents, then die.
		want := map[uint64]uint64{}
		for it := tr.Iterator(0, 0); it.Valid(); it.Next() {
			want[it.Key()] = it.Value()
		}
		pool.Crash()

		re, err := core.COpen(pool)
		if err != nil {
			t.Fatalf("recovery after crash under controller: %v", err)
		}
		if err := re.CheckInvariants(); err != nil {
			t.Fatalf("invariants after crash under controller: %v", err)
		}
		got := map[uint64]uint64{}
		for it := re.Iterator(0, 0); it.Valid(); it.Next() {
			got[it.Key()] = it.Value()
		}
		if len(got) != len(want) {
			t.Fatalf("recovered %d keys, want %d", len(got), len(want))
		}
		for k, v := range want {
			if gv, ok := got[k]; !ok || gv != v {
				t.Fatalf("key %#x = %d,%v after recovery, want %d", k, gv, ok, v)
			}
		}
		return
	}
}

// TestCrashUnderMixedFallback: with a budget of one, a mix of optimistic and
// fallback writes precedes the crash.
func TestCrashUnderMixedFallback(t *testing.T) {
	crashUnderController(t, htm.AdaptiveConfig{Budget: 1})
}

// TestCrashUnderAlwaysFallback: every write serialized through the global
// fallback lock (the paper's lock-elision degenerate case) — persistence
// ordering must be byte-for-byte the same story as the optimistic path.
func TestCrashUnderAlwaysFallback(t *testing.T) {
	crashUnderController(t, htm.AdaptiveConfig{AlwaysFallback: true})
}
