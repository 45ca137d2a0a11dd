package htm

import (
	"sync"
	"testing"
)

// TestAdaptiveDefaults: the zero config is the policy every concurrent tree
// runs, a budget of DefaultMaxRetries attempts.
func TestAdaptiveDefaults(t *testing.T) {
	if DefaultMaxRetries != 16 {
		t.Fatalf("DefaultMaxRetries = %d, want 16", DefaultMaxRetries)
	}
	if got := NewAdaptiveController(AdaptiveConfig{}).Budget(); got != DefaultMaxRetries {
		t.Fatalf("default budget = %d, want DefaultMaxRetries", got)
	}
}

func TestAdaptiveShouldFallback(t *testing.T) {
	c := NewAdaptiveController(AdaptiveConfig{Budget: 4})
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
