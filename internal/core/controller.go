package core

import (
	"runtime"

	"fptree/internal/htm"
	"fptree/internal/obs/trace"
)

// SetController replaces the controller newEngine gave a concurrent tree (the
// default htm.AdaptiveConfig) with c — a test's small-budget or
// always-fallback configuration. Index promotes this method.
// Single-threaded trees never abort, have no controller and ignore it; a nil
// c is ignored too, since a concurrent tree's writers need a budget and a
// fallback lock.
//
// Call before the tree serves traffic and before RegisterMetrics: the field
// is read without synchronization, and the gauge binds to the controller of
// the time.
func (e *engine[K, V]) SetController(c *htm.AdaptiveController) {
	if e.st || c == nil {
		return
	}
	e.ctrl = c
}

// Controller returns the tree's controller (nil on a single-threaded tree).
func (e *engine[K, V]) Controller() *htm.AdaptiveController { return e.ctrl }

// maybeFallback is consulted by writers at the top of every retry attempt:
// once the attempt count exceeds the controller's budget the writer
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
// lock loses the attempt at once; acquireLeaf counts the abort, waits for the
// holder (waitLeaf) and re-descends. A fallback writer (*fb) is already
// serialized behind the controller's global lock and has lost that race
// budget times, so it waits in the same loop for the lock itself: the parked
// fallback writer takes the leaf the moment it frees. Taking it after a wait
// trades no correctness: the post-lock validation (ref.dead, inner version)
// still runs, so a leaf that split meanwhile sends the writer back around the
// loop.
func (e *engine[K, V]) lockLeafCC(ref *leafRef, fb *bool) bool {
	switch {
	case fb == nil:
		return e.cc.tryRLockLeaf(ref)
	case !*fb:
		return e.cc.tryLockLeaf(ref)
	}
	return e.waitLeaf(ref, fb)
}

// waitLeaf is every lost leaf-lock race's wait: it spins on the lock word,
// yielding the CPU every few dozen turns, until the holder has gone — for a
// reader (fb == nil) until no writer is inside, for an optimistic writer until
// nobody is — or, for a fallback writer, until it holds the lock itself. It
// gives up on a leaf that died meanwhile (a deleted leaf stays locked
// forever) and reports false. It makes the crash check on every turn, since
// a writer that died in its critical section at an injected crash never lets
// go either.
func (e *engine[K, V]) waitLeaf(ref *leafRef, fb *bool) bool {
	for spins := 1; ; spins++ {
		if e.onWaitTurn != nil {
			e.onWaitTurn()
		}
		var gone bool
		switch {
		case fb == nil:
			gone = !ref.lk.Locked()
		case !*fb:
			gone = ref.lk.Idle()
		default:
			gone = e.cc.tryLockLeaf(ref)
		}
		if gone {
			return true
		}
		if ref.dead.Load() {
			return false
		}
		e.pool.PanicIfCrashed()
		if spins%32 == 0 {
			runtime.Gosched()
		}
	}
}
