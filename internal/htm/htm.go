// Package htm emulates the Hardware Transactional Memory semantics the
// FPTree's Selective Concurrency scheme obtains from Intel TSX.
//
// Go cannot issue XBEGIN/XEND, so the package provides the established
// software equivalent: optimistic version-locks (optimistic lock coupling).
// A VersionLock gives readers invisible, abort-and-retry access to a node —
// exactly what a TSX transaction gives at cache-line granularity — and gives
// writers exclusive access that invalidates concurrent readers. Conflicts are
// detected at node granularity instead of cache-line granularity, which is
// coarser but preserves the scheme's structure: the transient part of the
// tree is traversed optimistically, persistent-leaf changes happen under
// fine-grained leaf locks outside the optimistic region, and a reader that
// observes a concurrent change aborts and retries, falling back as needed.
//
// Stats mirror the abort/retry/fallback counters one would read from TSX
// performance events.
package htm

import (
	"runtime"
	"sync/atomic"

	"fptree/internal/obs"
)

// VersionLock is a word combining a lock bit with a version counter, the core
// of optimistic lock coupling. Readers snapshot the version, do their reads,
// and validate; writers take the lock bit and bump the version on release so
// every overlapping reader fails validation — the software analogue of a TSX
// conflict abort.
type VersionLock struct {
	w atomic.Uint64
}

// ReadBegin waits until the lock is free and returns the version snapshot to
// validate against. It is the XBEGIN analogue for one node.
func (v *VersionLock) ReadBegin() uint64 {
	for {
		if ver, ok := v.TryReadBegin(); ok {
			return ver
		}
		runtime.Gosched()
	}
}

// TryReadBegin is one step of ReadBegin: ok is false while a writer owns the
// node. For callers whose wait must also watch something else.
func (v *VersionLock) TryReadBegin() (ver uint64, ok bool) {
	w := v.w.Load()
	return w, w&1 == 0
}

// ReadValidate reports whether the node is still unchanged since ReadBegin
// returned ver. A false result is the XABORT analogue: the reader must
// restart.
func (v *VersionLock) ReadValidate(ver uint64) bool {
	return v.w.Load() == ver
}

// Lock spins until it holds the node exclusively.
func (v *VersionLock) Lock() {
	for {
		w := v.w.Load()
		if w&1 == 0 && v.w.CompareAndSwap(w, w|1) {
			return
		}
		runtime.Gosched()
	}
}

// TryLock attempts to take the node exclusively without spinning.
func (v *VersionLock) TryLock() bool {
	w := v.w.Load()
	return w&1 == 0 && v.w.CompareAndSwap(w, w|1)
}

// Unlock releases exclusive ownership and bumps the version, aborting every
// reader that overlapped the write.
func (v *VersionLock) Unlock() {
	v.w.Add(1) // 1 (lock bit) -> +1 wraps it into the version field: v|1 + 1 = (ver+1)<<1... see test
}

// UnlockNoBump releases exclusive ownership without invalidating readers.
// Use it when the critical section turned out to make no changes.
func (v *VersionLock) UnlockNoBump() {
	v.w.Add(^uint64(0)) // subtract the lock bit
}

// AbortCause classifies why an optimistic section aborted. Real TSX reports
// an abort cause word (conflict, capacity, explicit XABORT); the emulation
// tags each abort with where in the protocol the conflict was observed, so
// the windowed abort-ratio telemetry and the per-span trace attribution can
// distinguish traversal conflicts from leaf-lock contention.
type AbortCause uint8

const (
	// AbortDescend: version validation failed while traversing the inner
	// nodes (a writer modified a node on the path).
	AbortDescend AbortCause = iota
	// AbortLeafLock: the target leaf's lock was unavailable (a writer or
	// reader held it), the analogue of a data-conflict abort on the leaf.
	AbortLeafLock
	// AbortPostLock: the leaf parent changed between taking the leaf lock
	// and the final validation, or the leaf died underneath the operation.
	AbortPostLock
	// AbortOther: what NoteAbort and the trace clamp an out-of-range cause to;
	// no protocol step produces it.
	AbortOther

	// NumAbortCauses is the number of distinct causes; arrays indexed by
	// AbortCause have this length.
	NumAbortCauses
)

// String returns the short lowercase name used in metric names and trace
// JSON ("descend", "leaf_lock", ...).
func (c AbortCause) String() string {
	switch c {
	case AbortDescend:
		return "descend"
	case AbortLeafLock:
		return "leaf_lock"
	case AbortPostLock:
		return "post_lock"
	default:
		return "other"
	}
}

// Stats counts emulated-HTM events. The abort counters are striped by a key
// the caller supplies — the offset of the leaf the aborted operation was
// working on — so goroutines aborting on different leaves do not share a
// counter line.
type Stats struct {
	// Aborts counts validation failures (conflict aborts). Each restarts its
	// operation, so it is the restart count too (htm_restarts_total).
	Aborts    obs.StripedCounter
	Fallbacks atomic.Uint64 // times the global fallback lock was taken

	// ByCause breaks Aborts down by AbortCause; the per-cause counters sum
	// to Aborts (NoteAbort maintains both).
	ByCause [NumAbortCauses]obs.StripedCounter
}

// NoteAbort records one conflict abort plus the operation restart it forces,
// tagged with its cause, on key's stripe. It is the counting path behind the
// engine's abort-and-retry loops; Aborts == sum(ByCause) holds by
// construction.
func (s *Stats) NoteAbort(c AbortCause, key uint64) {
	if c >= NumAbortCauses {
		c = AbortOther
	}
	s.Aborts.Add(key, 1)
	s.ByCause[c].Add(key, 1)
}

// DefaultMaxRetries is every concurrent tree's retry budget: the optimistic
// retries a writer makes before it enters the fallback lock.
const DefaultMaxRetries = 16

// RWSpin is a tiny reader-writer spinlock used as the volatile per-leaf lock.
// The paper writes leaf locks inside TSX transactions with plain stores; in
// the emulation the equivalent is an atomic word. Leaf locks are never
// persisted and are reset during recovery.
type RWSpin struct {
	w atomic.Int32
}

const rwWriter = -1 << 20

// TryRLock attempts to add a reader; it fails while a writer is inside.
func (l *RWSpin) TryRLock() bool {
	for {
		w := l.w.Load()
		if w < 0 {
			return false
		}
		if l.w.CompareAndSwap(w, w+1) {
			return true
		}
	}
}

// RUnlock removes a reader.
func (l *RWSpin) RUnlock() { l.w.Add(-1) }

// TryLock attempts to take the write lock; it fails while any reader or
// writer is inside.
func (l *RWSpin) TryLock() bool {
	return l.w.CompareAndSwap(0, rwWriter)
}

// Lock spins until it holds the write lock.
func (l *RWSpin) Lock() {
	for !l.TryLock() {
		runtime.Gosched()
	}
}

// Unlock releases the write lock.
func (l *RWSpin) Unlock() { l.w.Store(0) }

// Locked reports whether a writer holds the lock (the "Leaf.lock == 1" test
// in the paper's pseudo-code).
func (l *RWSpin) Locked() bool { return l.w.Load() < 0 }

// Idle reports whether nobody, reader or writer, holds the lock: the state in
// which a TryLock would succeed.
func (l *RWSpin) Idle() bool { return l.w.Load() == 0 }
