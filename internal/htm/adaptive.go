package htm

import (
	"sync"
	"sync/atomic"
)

// The retry policy of the paper's TSX scheme: a bounded number of optimistic
// attempts, then a global fallback lock. An AdaptiveController sits beside
// one tree (one per kvserver shard) and holds both: the budget, a constant
// (DefaultMaxRetries unless a test asks for another), and the fallback mutex.
//
// Writers whose attempt count exceeds the budget enter the fallback mutex.
// Brown's refinement ("A Template for Implementing Fast Lock-free Trees Using
// HTM") is preserved by construction: optimistic *readers* never consult the
// fallback lock. They validate leaf versions against the writer's
// publication point (occCC bumps the leaf version before releasing the leaf
// lock), so a reader overlapping a fallback writer either validates a
// consistent pre-image or aborts and retries — it never stalls on the global
// lock. See CONCURRENCY.md for the full safety argument.

// AdaptiveConfig configures an AdaptiveController. The zero value is the
// policy every concurrent tree runs.
type AdaptiveConfig struct {
	// Budget is the number of optimistic retries a writer makes after its
	// first attempt before it enters the fallback lock. Default
	// DefaultMaxRetries.
	Budget int

	// AlwaysFallback forces every write through the fallback lock — the
	// verification mode crashtest uses to prove the serialized path
	// preserves persistence ordering.
	AlwaysFallback bool
}

// AdaptiveController owns the retry budget and the fallback lock for one
// tree. All methods are safe for concurrent use; an operation that does not
// exhaust the budget touches nothing of it.
type AdaptiveController struct {
	cfg AdaptiveConfig // Budget defaulted

	fbMu   sync.Mutex   // the global fallback lock (writers only)
	fbHeld atomic.Int32 // gauge: 1 while a fallback writer is inside
}

// NewAdaptiveController returns a controller for cfg.
func NewAdaptiveController(cfg AdaptiveConfig) *AdaptiveController {
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultMaxRetries
	}
	return &AdaptiveController{cfg: cfg}
}

// Budget returns the retry budget.
func (c *AdaptiveController) Budget() int { return c.cfg.Budget }

// ShouldFallback reports whether a writer at the given attempt number should
// stop retrying optimistically and take the fallback lock.
func (c *AdaptiveController) ShouldFallback(attempt int) bool {
	return c.cfg.AlwaysFallback || attempt > c.cfg.Budget
}

// EnterFallback takes the global fallback lock. Writers only: optimistic
// readers validate against the fallback writer's leaf-version publication
// point instead of waiting here (Brown's refinement).
func (c *AdaptiveController) EnterFallback() {
	c.fbMu.Lock()
	c.fbHeld.Store(1)
}

// ExitFallback releases the global fallback lock.
func (c *AdaptiveController) ExitFallback() {
	c.fbHeld.Store(0)
	c.fbMu.Unlock()
}
