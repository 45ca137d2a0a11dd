package core

import (
	"runtime"

	"fptree/internal/htm"
	"fptree/internal/obs/trace"
)

// SetController replaces the controller newEngine gave a concurrent tree (the
// default htm.AdaptiveConfig) with c — a test's fast-window or fixed-budget
// (Floor == Ceiling) configuration. The facades promote this method.
// Single-threaded trees never abort, have no controller and ignore it; a nil
// c is ignored too, since nothing else paces a concurrent tree's retries.
//
// Call before the tree serves traffic and before RegisterMetrics: the field
// is read without synchronization, and the gauges bind to the controller of
// the time.
func (e *engine[K, V]) SetController(c *htm.AdaptiveController) {
	if e.st || c == nil {
		return
	}
	e.ctrl = c
}

// Controller returns the tree's controller (nil on a single-threaded tree).
func (e *engine[K, V]) Controller() *htm.AdaptiveController { return e.ctrl }

// opDone reports one completed public operation to the controller — the
// denominator of the abort ratio it steers on, and the clock that paces its
// adaptation windows.
func (e *engine[K, V]) opDone() {
	if !e.st {
		e.ctrl.OnOp()
	}
}

// maybeFallback is consulted by writers at the top of every retry attempt:
// once the attempt count exceeds the controller's live budget the writer
// takes the global fallback lock and keeps it until the operation completes
// (releaseFallback), serializing budget-exhausted writers against each other
// so a conflict storm collapses instead of feeding on itself.
//
// The fallback lock is a contention valve, not a correctness device: the
// fallback writer still runs the full OLC protocol (descend, validate, leaf
// locks), and correctness never depends on holding the lock. That is what
// makes Brown's refinement safe by construction — optimistic readers never
// look at the fallback lock; they validate leaf versions against the writer's
// publication point (unlockLeaf bumps the version before releasing the leaf
// lock), so a reader overlapping a fallback writer either sees a consistent
// pre-image or aborts and retries, and never stalls on the global lock.
func (e *engine[K, V]) maybeFallback(attempt int, held *bool, sp *trace.Span) {
	if *held || e.st || !e.ctrl.ShouldFallback(attempt) {
		return
	}
	e.ctrl.EnterFallback()
	*held = true
	e.Stats.Fallbacks.Add(1)
	sp.Fallback()
}

// releaseFallback releases the fallback lock if this operation entered it.
func (e *engine[K, V]) releaseFallback(held *bool) {
	if *held {
		e.ctrl.ExitFallback()
		*held = false
	}
}

// lockLeafCC takes the leaf lock for one attempt of acquireLeaf: shared for a
// reader (fb == nil), exclusive for a writer. On the optimistic path a held
// lock is a conflict: fail fast, abort, re-descend. A fallback writer (*fb)
// is already serialized behind the controller's global lock, so it waits for
// the leaf instead — the try/abort/re-descend cycle is exactly the stampede
// the fallback exists to stop, and waiting costs nothing it wasn't already
// paying. Waiting trades no correctness: the post-lock validation (ref.dead,
// inner version) still runs, so a leaf that split while we waited sends the
// writer back around the loop. A leaf that died while we waited stays locked
// forever, so the wait gives up on it and reports the conflict; so does the
// leaf of a writer that died in its critical section at an injected crash,
// which is why the wait makes the check every retry loop must make.
func (e *engine[K, V]) lockLeafCC(ref *leafRef, fb *bool) bool {
	switch {
	case fb == nil:
		return e.cc.tryRLockLeaf(ref)
	case !*fb:
		return e.cc.tryLockLeaf(ref)
	}
	for !e.cc.tryLockLeaf(ref) {
		if ref.dead.Load() {
			return false
		}
		e.pool.PanicIfCrashed()
		runtime.Gosched()
	}
	return true
}
