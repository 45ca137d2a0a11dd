package htm

import (
	"math"
	"sync"
	"sync/atomic"
)

// Adaptive concurrency control, after Brown's "A Template for Implementing
// Fast Lock-free Trees Using HTM": the fallback-path policy dominates scaling
// more than the fast path does, so the retry budget and the decision to enter
// the global-lock fallback should track the *live* abort ratio instead of
// being compile-time constants.
//
// An AdaptiveController sits beside one tree (one per kvserver shard) and
// observes the same cause-tagged abort stream that feeds the htm_aborts_*
// telemetry. Every AdaptEvery completed operations it folds the window's
// conflict-abort ratio into an EWMA and moves the retry budget by AIMD
// (additive increase, multiplicative decrease) between a configured floor and
// ceiling, with a hysteresis band so a steady ratio never oscillates:
//
//	EWMA > 0.5   -> budget halves toward Floor
//	               (sustained conflicts: give up optimism sooner)
//	EWMA < 0.05  -> budget +1 toward Ceiling
//	               (contention drained: restore optimism)
//	otherwise    -> no change
//
// Every abort the protocol produces (descend, leaf_lock, post_lock) is a
// conflict — someone else is here — so every abort steers the budget. The
// emulation has nothing like TSX's capacity or spurious aborts, which would
// recur however few retries were allowed.
//
// Writers whose attempt count exceeds the live budget enter the fallback
// mutex. Brown's key refinement is preserved by construction: optimistic
// *readers* never consult the fallback lock. They validate leaf versions
// against the writer's publication point (occCC bumps the leaf version before
// releasing the leaf lock), so a reader overlapping a fallback writer either
// validates a consistent pre-image or aborts and retries — it never stalls on
// the global lock. See CONCURRENCY.md for the full safety argument.

// AdaptiveConfig bounds and paces an AdaptiveController. The zero value
// selects the defaults documented on each field.
type AdaptiveConfig struct {
	// Floor and Ceiling bound the retry budget (optimistic attempts before a
	// writer enters the fallback lock). Defaults 2 and 16; DefaultMaxRetries
	// sits between them. Floor == Ceiling is a fixed budget.
	Floor   int
	Ceiling int

	// AdaptEvery is the adaptation period in completed operations. Counting
	// operations instead of wall time keeps adaptation deterministic under
	// test and naturally scales the sampling rate with load. Default 256.
	AdaptEvery int

	// AlwaysFallback forces every write through the fallback lock regardless
	// of the abort ratio — the verification mode crashtest uses to prove the
	// serialized path preserves persistence ordering.
	AlwaysFallback bool
}

// Defaults for AdaptiveConfig's zero fields.
const (
	DefaultAdaptiveFloor   = 2
	DefaultAdaptiveCeiling = 16
	DefaultAdaptEvery      = 256
)

const (
	ewmaLow   = 0.05 // aborts per completed op below which the budget grows
	ewmaHigh  = 0.5  // ... and above which it shrinks; between them it holds
	ewmaAlpha = 0.4  // weight of the newest window sample
)

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.Floor <= 0 {
		c.Floor = DefaultAdaptiveFloor
	}
	if c.Ceiling <= 0 {
		c.Ceiling = DefaultAdaptiveCeiling
	}
	if c.Ceiling < c.Floor {
		c.Ceiling = c.Floor
	}
	if c.AdaptEvery <= 0 {
		c.AdaptEvery = DefaultAdaptEvery
	}
	return c
}

// AdaptiveStats counts controller events; all fields are safe to read while
// the controller is live.
type AdaptiveStats struct {
	Adaptations  atomic.Uint64 // adaptation windows evaluated
	BudgetCuts   atomic.Uint64 // windows that shrank the budget
	BudgetRaises atomic.Uint64 // windows that grew the budget
}

// AdaptiveController owns the live retry budget and the fallback lock for one
// tree. All methods are safe for concurrent use; the controller adds one
// shared atomic increment to every completed operation (OnOp) and nothing
// else to an operation that does not abort.
type AdaptiveController struct {
	cfg AdaptiveConfig

	budget atomic.Int64  // live retry budget, in [Floor, Ceiling]
	ewma   atomic.Uint64 // float64 bits of the conflict-abort-ratio EWMA

	ops       atomic.Uint64 // completed ops in the current window
	conflicts atomic.Uint64 // aborts in the current window
	adapting  atomic.Bool   // single-flight latch for window evaluation

	fbMu   sync.Mutex   // the global fallback lock (writers only)
	fbHeld atomic.Int32 // gauge: 1 while a fallback writer is inside

	Stats AdaptiveStats
}

// NewAdaptiveController returns a controller with the budget at cfg's ceiling
// (start optimistic, earn pessimism).
func NewAdaptiveController(cfg AdaptiveConfig) *AdaptiveController {
	c := &AdaptiveController{cfg: cfg.withDefaults()}
	c.budget.Store(int64(c.cfg.Ceiling))
	return c
}

// Config returns the controller's effective configuration (defaults applied).
func (c *AdaptiveController) Config() AdaptiveConfig { return c.cfg }

// Budget returns the live retry budget.
func (c *AdaptiveController) Budget() int { return int(c.budget.Load()) }

// AbortEWMA returns the smoothed conflict-aborts-per-op ratio the controller
// is steering on.
func (c *AdaptiveController) AbortEWMA() float64 {
	return math.Float64frombits(c.ewma.Load())
}

// OnOp records one completed operation and, at window boundaries, re-evaluates
// the budget. Called once per point operation (find, insert, update, upsert,
// delete) and once per leaf a scan or an iterator seeks to, so every range
// read weighs in by the leaves it acquired, like the aborts it can suffer.
func (c *AdaptiveController) OnOp() {
	if c.ops.Add(1) < uint64(c.cfg.AdaptEvery) {
		return
	}
	if !c.adapting.CompareAndSwap(false, true) {
		return
	}
	ops := c.ops.Swap(0)
	conflicts := c.conflicts.Swap(0)
	c.adapt(ops, conflicts)
	c.adapting.Store(false)
}

// OnAbort counts one conflict abort toward the current window. It never
// blocks: pacing the loser is the tree's business, and the tree waits for the
// lock it lost to rather than for a timer (a sub-millisecond sleep can last
// about a millisecond once the other CPUs are busy, long after the holder
// left).
func (c *AdaptiveController) OnAbort() { c.conflicts.Add(1) }

// ShouldFallback reports whether a writer at the given attempt number should
// stop retrying optimistically and take the fallback lock.
func (c *AdaptiveController) ShouldFallback(attempt int) bool {
	return c.cfg.AlwaysFallback || attempt > int(c.budget.Load())
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

// adapt folds one window sample into the EWMA and applies the AIMD step.
func (c *AdaptiveController) adapt(ops, conflicts uint64) {
	if ops == 0 {
		return
	}
	sample := float64(conflicts) / float64(ops)
	e := ewmaAlpha*sample + (1-ewmaAlpha)*c.AbortEWMA()
	c.ewma.Store(math.Float64bits(e))
	c.Stats.Adaptations.Add(1)

	switch {
	case e > ewmaHigh:
		// Sustained conflicts: halve the budget toward the floor so writers
		// reach the fallback lock sooner.
		b := int(c.budget.Load()) / 2
		if b < c.cfg.Floor {
			b = c.cfg.Floor
		}
		if int64(b) != c.budget.Swap(int64(b)) {
			c.Stats.BudgetCuts.Add(1)
		}
	case e < ewmaLow:
		// Contention drained: restore optimism one attempt at a time.
		b := int(c.budget.Load()) + 1
		if b > c.cfg.Ceiling {
			b = c.cfg.Ceiling
		}
		if int64(b) != c.budget.Swap(int64(b)) {
			c.Stats.BudgetRaises.Add(1)
		}
	}
}
