package crashtest

// Crash-consistency under the adaptive concurrency controller: the controller
// only steers scheduling (retry pacing, fallback serialization) — every
// persistence action still happens inside the same leaf-lock critical
// sections in the same order. These tests prove that by running the
// concurrent-history workload with a controller attached (both the default
// adaptive policy and AlwaysFallback, which drives every write through the
// global fallback lock), then crashing the pool mid-life and recovering: the
// recovered tree must pass full invariant checks and carry exactly the
// committed pre-crash contents.

import (
	"testing"

	"fptree/internal/core"
	"fptree/internal/htm"
)

func crashUnderController(t *testing.T, cfg htm.AdaptiveConfig) {
	t.Helper()
	pool := newTestPool()
	tr, err := core.CCreate(pool, core.Config{LeafCap: 16, InnerFanout: 8, GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := htm.NewAdaptiveController(cfg)
	tr.SetController(ctrl)

	if n := ConcurrentHistory(t, tr, ConcurrentOptions{Workers: 4, OpsPerWorker: 800, Seed: 11}); n == 0 {
		t.Fatal("workload performed no shared increments")
	}
	if cfg.AlwaysFallback && tr.Stats.Fallbacks.Load() == 0 {
		t.Fatal("AlwaysFallback controller never entered the fallback lock")
	}

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
}

// TestCrashUnderAdaptiveController: default adaptive policy — a mix of
// optimistic and (under conflict) fallback executions precedes the crash.
func TestCrashUnderAdaptiveController(t *testing.T) {
	// A tight window and band so adaptation actually fires during the run.
	crashUnderController(t, htm.AdaptiveConfig{AdaptEvery: 64})
}

// TestCrashUnderAlwaysFallback: every write serialized through the global
// fallback lock (the paper's lock-elision degenerate case) — persistence
// ordering must be byte-for-byte the same story as the optimistic path.
func TestCrashUnderAlwaysFallback(t *testing.T) {
	crashUnderController(t, htm.AdaptiveConfig{AlwaysFallback: true})
}
