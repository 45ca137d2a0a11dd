package htm

import (
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
			c.OnAbort(0) // attempt 0: yields, never sleeps
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
	if got := c.BackoffCap(); got != backoffFloor {
		t.Fatalf("initial backoff cap = %v, want floor %v", got, backoffFloor)
	}
}

// TestAdaptiveRampUp: a sustained high-conflict stream must drive the budget
// to the floor and the backoff cap to the ceiling, staying in bounds at every
// step, and stay there while the stream continues.
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
		if cap := c.BackoffCap(); cap < backoffFloor || cap > backoffCeiling {
			t.Fatalf("round %d: backoff cap %v out of [%v,%v]", round, cap, backoffFloor, backoffCeiling)
		}
	}
	if got := c.Budget(); got != cfg.Floor {
		t.Fatalf("budget after sustained conflicts = %d, want floor %d", got, cfg.Floor)
	}
	if got := c.BackoffCap(); got != backoffCeiling {
		t.Fatalf("backoff cap after sustained conflicts = %v, want ceiling %v", got, backoffCeiling)
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
// budget to the ceiling and the backoff cap to the floor.
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
	if got := c.BackoffCap(); got != backoffFloor {
		t.Fatalf("backoff cap after drain = %v, want floor %v", got, backoffFloor)
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
				c.OnAbort(0)
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

// TestAdaptiveOnAbortPacing: within the budget OnAbort only yields; past it
// the goroutine really parks, for no longer than the live cap allows.
func TestAdaptiveOnAbortPacing(t *testing.T) {
	c := NewAdaptiveController(AdaptiveConfig{Floor: 4, Ceiling: 4})
	start := time.Now()
	for a := 0; a < c.Budget(); a++ {
		c.OnAbort(a)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("in-budget OnAbort too slow: %v", d)
	}

	start = time.Now()
	c.OnAbort(1000) // far past budget: park at the cap
	if d := time.Since(start); d < c.BackoffCap() || d > time.Second {
		t.Fatalf("past-budget OnAbort took %v, want a park of at least %v and a bounded one", d, c.BackoffCap())
	}
}
