package core

import (
	"fptree/internal/htm"
	"fptree/internal/obs/trace"
)

// SetTracer installs tr as the engine's operation tracer; nil (the default)
// disables tracing, leaving exactly one predictable nil-check branch per
// instrumentation site. The facades promote this method, and kvserver.Store
// carries it, so any store backed by a tree can be traced without new
// constructor plumbing.
//
// Call before the tree serves traffic: the field is read without
// synchronization on every operation.
func (e *engine[K, V]) SetTracer(tr *trace.Tracer) { e.tr = tr }

// Tracer returns the installed tracer (nil when tracing is disabled).
func (e *engine[K, V]) Tracer() *trace.Tracer { return e.tr }

// abortc records one optimistic-validation failure: the crash-injection
// check every retry loop must make, the cause-tagged htm counters and the
// (possibly nil) span of the operation that must now retry. It does not pace
// the retry; the caller does, by waiting for the leaf's holder or by yielding
// once. leaf is the offset of the leaf the conflict was observed on (0 when
// the descent failed before reaching one); it only selects the counter
// stripe. Only concurrent engines abort.
func (e *engine[K, V]) abortc(c htm.AbortCause, sp *trace.Span, leaf uint64) {
	e.pool.PanicIfCrashed()
	e.Stats.NoteAbort(c, leaf)
	sp.Abort(c)
}
