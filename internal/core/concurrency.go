package core

import (
	"runtime"

	"fptree/internal/htm"
	"fptree/internal/scm"
)

// concurrency is the engine's synchronization template (Selective Concurrency,
// paper §4.2; cf. Brown's HTM-template factoring). The engine always runs the
// optimistic descend/validate/lock protocol; the controller decides whether
// those primitives actually do anything. The single-threaded controller turns
// every operation into a plain no-validation walk at zero cost, while the
// speculative controller delegates to the htm package's version locks (inner
// nodes) and leaf spinlocks, matching the paper's TSX-with-fallback scheme.
type concurrency interface {
	// concurrent reports whether real synchronization is in effect. The
	// engine uses it to gate single-threaded-only behavior (leaf groups,
	// eager empty-leaf unlinking) — not for lock elision, which the
	// controller itself handles.
	concurrent() bool

	// Inner-node version locks (htm.VersionLock discipline).
	readBegin(l *htm.VersionLock) uint64
	validate(l *htm.VersionLock, ver uint64) bool
	lockNode(l *htm.VersionLock)
	unlockNode(l *htm.VersionLock)       // bumps the version
	unlockNodeNoBump(l *htm.VersionLock) // releases without invalidating readers

	// Leaf locks (htm.RWSpin on the DRAM leafRef handle).
	tryRLockLeaf(r *leafRef) bool
	rUnlockLeaf(r *leafRef)
	tryLockLeaf(r *leafRef) bool
	lockLeaf(r *leafRef)
	unlockLeaf(r *leafRef)
}

// nopCC is the single-threaded controller: every primitive is free and every
// try-acquire succeeds, so the engine's optimistic loops run exactly once.
// Only unlockLeaf does work: it bumps the leaf's version as occCC's does, so
// range cursors revalidate the same way on both controllers.
type nopCC struct{}

func (nopCC) concurrent() bool                       { return false }
func (nopCC) readBegin(*htm.VersionLock) uint64      { return 0 }
func (nopCC) validate(*htm.VersionLock, uint64) bool { return true }
func (nopCC) lockNode(*htm.VersionLock)              {}
func (nopCC) unlockNode(*htm.VersionLock)            {}
func (nopCC) unlockNodeNoBump(*htm.VersionLock)      {}
func (nopCC) tryRLockLeaf(*leafRef) bool             { return true }
func (nopCC) rUnlockLeaf(*leafRef)                   {}
func (nopCC) tryLockLeaf(*leafRef) bool              { return true }
func (nopCC) lockLeaf(*leafRef)                      {}
func (nopCC) unlockLeaf(r *leafRef)                  { r.ver.Add(1) }

// occCC is the concurrent controller: speculative validated descent over
// per-node version locks plus fine-grained leaf spinlocks, the software
// analogue of the paper's HTM sections with fallback.
//
// It knows the pool because a goroutine that dies at an injected crash never
// releases what it holds (firstLeaf holds the anchor and the root across its
// Alloc; an SMO holds inner nodes across a pool read that panics once another
// goroutine has crashed), so the two waits on a node lock must die with it.
type occCC struct{ pool *scm.Pool }

func (occCC) concurrent() bool { return true }

func (c occCC) readBegin(l *htm.VersionLock) uint64 {
	for {
		if ver, ok := l.TryReadBegin(); ok {
			return ver
		}
		c.pool.PanicIfCrashed()
		runtime.Gosched()
	}
}

func (c occCC) lockNode(l *htm.VersionLock) {
	for !l.TryLock() {
		c.pool.PanicIfCrashed()
		runtime.Gosched()
	}
}

func (occCC) validate(l *htm.VersionLock, v uint64) bool { return l.ReadValidate(v) }
func (occCC) unlockNode(l *htm.VersionLock)              { l.Unlock() }
func (occCC) unlockNodeNoBump(l *htm.VersionLock)        { l.UnlockNoBump() }
func (occCC) tryRLockLeaf(r *leafRef) bool               { return r.lk.TryRLock() }
func (occCC) rUnlockLeaf(r *leafRef)                     { r.lk.RUnlock() }
func (occCC) tryLockLeaf(r *leafRef) bool                { return r.lk.TryLock() }
func (occCC) lockLeaf(r *leafRef)                        { r.lk.Lock() }

// unlockLeaf bumps the leaf's modification version BEFORE releasing the
// exclusive lock. The order matters: a range cursor validates "version
// unchanged" after caching content read under the shared lock, and the
// shared lock cannot be held while a writer holds the exclusive one — so an
// unchanged version proves the cached content is still current. Bumping
// after the unlock would open a window where changed content still carries
// the old version.
func (occCC) unlockLeaf(r *leafRef) {
	r.ver.Add(1)
	r.lk.Unlock()
}
