package htm

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// feedWindow drives one full adaptation window through the controller: ops
// completed operations, each preceded by abortsPerOp aborts. Synchronous and
// single-goroutine, so adaptation is deterministic.
func feedWindow(c *AdaptiveController, ops, abortsPerOp int) {
	for i := 0; i < ops; i++ {
		for a := 0; a < abortsPerOp; a++ {
			c.OnAbort()
		}
		c.OnOp()
	}
}

func TestAdaptiveDefaults(t *testing.T) {
	c := NewAdaptiveController(AdaptiveConfig{})
	cfg := c.Config()
	if cfg.Floor != DefaultAdaptiveFloor || cfg.Ceiling != DefaultAdaptiveCeiling {
		t.Fatalf("budget bounds = [%d,%d]", cfg.Floor, cfg.Ceiling)
	}
	if cfg.AdaptEvery != DefaultAdaptEvery {
		t.Fatalf("AdaptEvery = %d", cfg.AdaptEvery)
	}
	if got := c.Budget(); got != cfg.Ceiling {
		t.Fatalf("initial budget = %d, want ceiling %d", got, cfg.Ceiling)
	}
}

// TestAdaptiveRampUp: a sustained high-conflict stream must drive the budget
// to the floor, staying in bounds at every step, and keep it there while the
// stream continues.
func TestAdaptiveRampUp(t *testing.T) {
	cfg := AdaptiveConfig{Floor: 2, Ceiling: 16, AdaptEvery: 64}
	c := NewAdaptiveController(cfg)
	cfg = c.Config()
	for round := 0; round < 12; round++ {
		feedWindow(c, cfg.AdaptEvery, 2) // ratio 2.0 >> High
		b := c.Budget()
		if b < cfg.Floor || b > cfg.Ceiling {
			t.Fatalf("round %d: budget %d out of [%d,%d]", round, b, cfg.Floor, cfg.Ceiling)
		}
	}
	if got := c.Budget(); got != cfg.Floor {
		t.Fatalf("budget after sustained conflicts = %d, want floor %d", got, cfg.Floor)
	}
	if c.Stats.BudgetCuts.Load() == 0 {
		t.Fatal("no budget cuts recorded")
	}
	// At the floor, further conflict windows must not move it (no underflow).
	feedWindow(c, cfg.AdaptEvery, 2)
	if got := c.Budget(); got != cfg.Floor {
		t.Fatalf("budget left the floor under continued conflicts: %d", got)
	}
}

// TestAdaptiveDrain: after contention drains, calm windows must restore the
// budget to the ceiling.
func TestAdaptiveDrain(t *testing.T) {
	cfg := AdaptiveConfig{Floor: 2, Ceiling: 16, AdaptEvery: 64}
	c := NewAdaptiveController(cfg)
	cfg = c.Config()
	for round := 0; round < 12; round++ {
		feedWindow(c, cfg.AdaptEvery, 2)
	}
	if c.Budget() != cfg.Floor {
		t.Fatalf("precondition: budget %d != floor", c.Budget())
	}
	// EWMA must decay below Low, then the budget climbs +1 per window; give
	// it decay windows plus one window per budget step.
	for round := 0; round < 40 && c.Budget() < cfg.Ceiling; round++ {
		feedWindow(c, cfg.AdaptEvery, 0) // ratio 0
	}
	if got := c.Budget(); got != cfg.Ceiling {
		t.Fatalf("budget after drain = %d, want ceiling %d", got, cfg.Ceiling)
	}
	if c.Stats.BudgetRaises.Load() == 0 {
		t.Fatal("no budget raises recorded")
	}
}

// TestAdaptiveBurst: one conflicted window inside a calm stream may dip the
// budget, but the EWMA must smooth it and the budget must recover to the
// ceiling once the burst passes.
func TestAdaptiveBurst(t *testing.T) {
	cfg := AdaptiveConfig{Floor: 2, Ceiling: 16, AdaptEvery: 64}
	c := NewAdaptiveController(cfg)
	cfg = c.Config()
	for round := 0; round < 4; round++ {
		feedWindow(c, cfg.AdaptEvery, 0)
	}
	feedWindow(c, cfg.AdaptEvery, 3) // the burst
	dip := c.Budget()
	if dip < cfg.Floor || dip > cfg.Ceiling {
		t.Fatalf("budget %d out of bounds after burst", dip)
	}
	for round := 0; round < 40 && c.Budget() < cfg.Ceiling; round++ {
		feedWindow(c, cfg.AdaptEvery, 0)
	}
	if got := c.Budget(); got != cfg.Ceiling {
		t.Fatalf("budget did not recover after burst: %d", got)
	}
}

// TestAdaptiveNoOscillation: a steady ratio inside the hysteresis band must
// leave the budget unchanged window after window — the band exists precisely
// so the controller cannot flap between raise and cut on a constant signal.
func TestAdaptiveNoOscillation(t *testing.T) {
	cfg := AdaptiveConfig{Floor: 2, Ceiling: 16, AdaptEvery: 100}
	c := NewAdaptiveController(cfg)
	cfg = c.Config()
	// Ratio 0.2 sits inside (ewmaLow, ewmaHigh): 20 conflicts per 100-op window.
	warm := func() {
		for i := 0; i < cfg.AdaptEvery; i++ {
			if i < 20 {
				c.OnAbort()
			}
			c.OnOp()
		}
	}
	warm() // EWMA moves from 0 toward 0.2; may raise once while below Low
	warm()
	ref := c.Budget()
	for round := 0; round < 20; round++ {
		warm()
		if got := c.Budget(); got != ref {
			t.Fatalf("round %d: budget oscillated %d -> %d on a steady in-band ratio", round, ref, got)
		}
	}
}

func TestAdaptiveShouldFallback(t *testing.T) {
	c := NewAdaptiveController(AdaptiveConfig{Floor: 2, Ceiling: 4})
	if c.ShouldFallback(0) || c.ShouldFallback(4) {
		t.Fatal("fallback before exhausting the budget")
	}
	if !c.ShouldFallback(5) {
		t.Fatal("no fallback past the budget")
	}
	af := NewAdaptiveController(AdaptiveConfig{AlwaysFallback: true})
	if !af.ShouldFallback(0) {
		t.Fatal("AlwaysFallback did not force fallback on attempt 0")
	}
}

// TestAdaptiveFallbackMutualExclusion: Enter/ExitFallback is a real mutex and
// the held gauge tracks it.
func TestAdaptiveFallbackMutualExclusion(t *testing.T) {
	c := NewAdaptiveController(AdaptiveConfig{})
	const goroutines, rounds = 4, 200
	var inside, max int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.EnterFallback()
				mu.Lock()
				inside++
				if inside > max {
					max = inside
				}
				if c.fbHeld.Load() != 1 {
					t.Error("fallback-held gauge is 0 inside the critical section")
				}
				inside--
				mu.Unlock()
				c.ExitFallback()
			}
		}()
	}
	wg.Wait()
	if max != 1 {
		t.Fatalf("fallback admitted %d holders at once", max)
	}
	if c.fbHeld.Load() != 0 {
		t.Fatal("fallback-held gauge stuck after release")
	}
}

// TestAdaptiveOnAbortNeverBlocks: OnAbort only counts the conflict. However
// far one operation's aborts run past the budget, the call returns at once —
// a loser waits for the lock it lost to in the tree, never on a timer here —
// and every call still reaches the window the budget is steered by.
func TestAdaptiveOnAbortNeverBlocks(t *testing.T) {
	c := NewAdaptiveController(AdaptiveConfig{Floor: 2, Ceiling: 2})
	const calls = 1000 // 500 times the budget, with no operation completing
	took := make([]time.Duration, calls)
	for i := range took {
		start := time.Now()
		c.OnAbort()
		took[i] = time.Since(start)
	}
	slices.Sort(took)
	// A timer park costs tens of microseconds at the least; a count, nanoseconds.
	if med := took[calls/2]; med > 10*time.Microsecond {
		t.Fatalf("median OnAbort took %v far past the budget: it parks", med)
	}
	if got := c.conflicts.Load(); got != calls {
		t.Fatalf("window holds %d conflicts after %d aborts", got, calls)
	}
}
