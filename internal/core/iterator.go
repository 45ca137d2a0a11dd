package core

import (
	"slices"

	"fptree/internal/htm"
	"fptree/internal/obs/trace"
)

// Resumable range iterators over the [start, end) key window, for all four
// facades. The design follows the leaf sibling list the paper's scans use,
// with one twist that makes the iterator safe under Selective Concurrency:
// every batch of keys is read from one leaf under its shared lock together
// with the leaf's modification version, and each Next() revalidates that
// version before serving from the batch. On conflict (the leaf was split,
// merged or mutated underneath) or exhaustion the iterator re-seeks from the
// last key it returned, so iteration is linearizable per step: every emitted
// key was live at its emission instant, emission is strictly monotonic (no
// key is ever returned twice), and a key that is present for the whole
// session and inside the window is never skipped.
//
// What the iterator does NOT provide is a snapshot: keys inserted or deleted
// concurrently behind the cursor are simply outside its past, and ones ahead
// of the cursor may or may not be observed depending on when the mutation
// lands relative to the cursor's arrival.
//
// Forward iteration steps to the next leaf via the single-threaded engine's
// persistent next pointer (safe while nothing mutated) or, concurrently, by
// re-seeking past the tightest right-hand separator observed during the
// descent — the same ub device scanSeek uses. Reverse iteration always
// re-seeks through the inner index using the tightest LEFT separator: sibling
// pointers only go forward, and the left separator is by construction the max
// key of the left neighbor subtree, so descending to it lands exactly one
// leaf to the left (and strictly decreases at every hop, which guarantees
// termination).

// bound is an optional key: an inclusive/exclusive domain edge or a separator
// picked up during a descent. ok=false means "unbounded".
type bound[K any] struct {
	key K
	ok  bool
}

// Iter is a resumable iterator over a [start, end) window of the tree,
// created by the facades' Iterator/ReverseIterator methods. A freshly created
// iterator is already positioned on the first key of the window (check
// Valid); Next advances. Iterators are not safe for concurrent use by
// multiple goroutines, but on the concurrent trees they may run alongside
// writers. Close releases the iterator; it must not be used after the tree
// is re-opened (Recover builds a new engine).
type Iter[K, V any] struct {
	e       *engine[K, V]
	reverse bool
	start   bound[K] // inclusive lower domain edge
	end     bound[K] // exclusive upper domain edge

	cur    K // last emitted key: the exclusive resume cursor
	curSet bool

	batch []kvPair[K, V] // window keys of the current leaf, in emission order

	haveLeaf bool
	ref      *leafRef // leaf handle the batch was read from (occ revalidation)
	leafVer  uint64   // ref.ver at batch time (occ)
	leafOff  uint64   // leaf offset at batch time (st sibling chase)
	mutSnap  uint64   // engine mutation counter at batch time (st revalidation)
	ub       bound[K] // tightest right separator of the batch leaf's descent
	lb       bound[K] // tightest left separator of the batch leaf's descent

	k     K
	v     V
	valid bool
	done  bool
}

// FixedIterator iterates 8-byte keys and values ([Tree], [CTree]).
type FixedIterator = Iter[uint64, uint64]

// VarIterator iterates byte-string keys and values ([VarTree], [CVarTree]).
type VarIterator = Iter[[]byte, []byte]

// fixedIterBounds maps the fixed facades' window convention onto bounds:
// end == 0 means unbounded (a zero exclusive end would exclude every key, so
// the zero value is free to mean "no bound"); start 0 is simply the smallest
// key, which is indistinguishable from unbounded.
func fixedIterBounds(start, end uint64) (bound[uint64], bound[uint64]) {
	return bound[uint64]{key: start, ok: true}, bound[uint64]{key: end, ok: end != 0}
}

// varIterBound maps the var facades' convention: nil (or empty, which is not
// a legal key) means unbounded. The edge is cloned — the iterator outlives
// the call and the caller keeps ownership of its slice.
func varIterBound(k []byte) bound[[]byte] {
	if len(k) == 0 {
		return bound[[]byte]{}
	}
	return bound[[]byte]{key: slices.Clone(k), ok: true}
}

// scanNCap sizes a ScanN result slice: min(n, live keys), floored at zero.
func scanNCap(n, live int) int {
	if n < 0 {
		n = 0
	}
	if live < n {
		n = live
	}
	return n
}

func (e *engine[K, V]) iterator(start, end bound[K], reverse bool) *Iter[K, V] {
	it := &Iter[K, V]{e: e, reverse: reverse, start: start, end: end}
	if start.ok && end.ok && !e.cdc.less(start.key, end.key) {
		it.done = true // empty domain
		return it
	}
	it.advance()
	return it
}

// Valid reports whether the iterator is positioned on a key.
func (it *Iter[K, V]) Valid() bool { return it.valid }

// Key returns the key the iterator is positioned on (zero when !Valid).
func (it *Iter[K, V]) Key() K { return it.k }

// Value returns the value the iterator is positioned on (zero when !Valid).
func (it *Iter[K, V]) Value() V { return it.v }

// Domain returns the window the iterator was created with, in constructor
// form (the zero value of an edge means unbounded).
func (it *Iter[K, V]) Domain() (start, end K) { return it.start.key, it.end.key }

// Next advances to the next key of the window and reports whether one exists.
func (it *Iter[K, V]) Next() bool {
	it.advance()
	return it.valid
}

// Close releases the iterator. Further calls report an exhausted iterator.
func (it *Iter[K, V]) Close() { it.finish() }

func (it *Iter[K, V]) finish() {
	it.done = true
	it.valid = false
	it.haveLeaf = false
	it.ref = nil
	it.batch = nil
}

// advance is the per-step core: serve from the cached leaf batch while it
// provably matches the live leaf, step to the neighbor leaf on exhaustion,
// and re-seek from the cursor when the leaf changed underneath.
func (it *Iter[K, V]) advance() {
	it.valid = false
	if it.done {
		return
	}
	for {
		if len(it.batch) > 0 {
			if it.leafLive() {
				kv := it.batch[0]
				it.batch = it.batch[1:]
				it.k, it.v = kv.k, kv.v
				it.cur, it.curSet = kv.k, true
				it.valid = true
				return
			}
			// Conflict: the batch may contain stale pairs. Drop it and
			// re-seek from the last emitted key.
			it.batch = it.batch[:0]
			it.haveLeaf = false
		}
		if it.haveLeaf && it.leafLive() {
			// Batch exhausted with the leaf intact: step to the neighbor.
			it.haveLeaf = false
			if !it.reverse {
				if it.e.st {
					// Single-threaded fast path: chase the persistent
					// sibling pointer (valid while nothing mutated).
					next := it.e.leafNext(it.leafOff)
					if next.IsNull() {
						it.finish()
						return
					}
					it.leafOff = next.Offset
					it.fill(it.leafOff)
					it.haveLeaf = true
					continue
				}
				if !it.ub.ok {
					it.finish() // rightmost leaf done
					return
				}
				t, ok := it.e.cdc.nextAfter(it.ub.key)
				if !ok || (it.end.ok && !it.e.cdc.less(t, it.end.key)) {
					it.finish()
					return
				}
				if !it.seek(&t, false) {
					it.finish()
					return
				}
				continue
			}
			if !it.lb.ok || (it.start.ok && it.e.cdc.less(it.lb.key, it.start.key)) {
				it.finish() // leftmost leaf of the window done
				return
			}
			t := it.lb.key
			if !it.seek(&t, false) {
				it.finish()
				return
			}
			continue
		}
		// No live leaf (first positioning, or a conflict was detected):
		// resume from the cursor.
		if !it.seekResume() {
			it.finish()
			return
		}
	}
}

// leafLive reports whether the cached batch still matches the leaf it was
// read from: on the single-threaded engine no mutation ran since the batch
// was taken; on the concurrent engine the leaf is neither deleted nor was
// its version bumped by a writer (occCC.unlockLeaf).
func (it *Iter[K, V]) leafLive() bool {
	if it.e.st {
		return it.mutSnap == it.e.mut
	}
	return !it.ref.dead.Load() && it.ref.ver.Load() == it.leafVer
}

// seekResume descends to the leaf covering the resume point: just past the
// last emitted key, or the domain edge when nothing was emitted yet. Returns
// false when the window is exhausted or the tree is empty.
func (it *Iter[K, V]) seekResume() bool {
	if !it.reverse {
		if it.curSet {
			t, ok := it.e.cdc.nextAfter(it.cur)
			if !ok || (it.end.ok && !it.e.cdc.less(t, it.end.key)) {
				return false
			}
			return it.seek(&t, false)
		}
		if it.start.ok {
			t := it.start.key
			return it.seek(&t, false)
		}
		return it.seek(nil, false) // leftmost leaf
	}
	if it.curSet {
		t := it.cur
		return it.seek(&t, false)
	}
	if it.end.ok {
		t := it.end.key
		return it.seek(&t, false)
	}
	return it.seek(nil, true) // rightmost leaf
}

// seek descends to the leaf covering target (nil: the leftmost or rightmost
// leaf), fills the batch from it under the shared leaf lock, and records the
// revalidation state (leaf version / mutation counter) plus the separator
// bounds for stepping. Returns false only for an empty tree.
func (it *Iter[K, V]) seek(target *K, rightmost bool) bool {
	e := it.e
	sp := e.tr.Start(trace.OpIterSeek)
	sp.Enter(trace.PhaseDescend)
	for attempt := 0; ; attempt++ {
		n, ver, ref, lb, ub, ok := e.descendIter(target, rightmost)
		if !ok {
			e.abortc(htm.AbortIter, sp, attempt, 0)
			continue
		}
		if ref == nil {
			sp.Finish()
			e.opDone()
			return false // empty tree
		}
		if !e.cc.tryRLockLeaf(ref) {
			e.abortc(htm.AbortLeafLock, sp, attempt, ref.off)
			continue
		}
		if !e.cc.validate(&n.lock, ver) {
			e.cc.rUnlockLeaf(ref)
			e.abortc(htm.AbortPostLock, sp, attempt, ref.off)
			continue
		}
		// ver and content form a consistent pair: writers bump ref.ver
		// before releasing the exclusive lock, which cannot be held while
		// we hold the shared lock.
		sp.Enter(trace.PhaseLeaf)
		lv := ref.ver.Load()
		it.fill(ref.off)
		e.cc.rUnlockLeaf(ref)
		it.ref, it.leafVer, it.leafOff = ref, lv, ref.off
		it.lb, it.ub = lb, ub
		it.mutSnap = e.mut
		it.haveLeaf = true
		sp.Finish()
		e.opDone()
		return true
	}
}

// fill reads the leaf's valid slots, filters them to the live window
// (cursor-exclusive on the emission side, domain edges otherwise) and sorts
// them into emission order.
func (it *Iter[K, V]) fill(leaf uint64) {
	e := it.e
	bm := e.leafBitmap(leaf)
	it.batch = it.batch[:0]
	if it.batch == nil {
		it.batch = make([]kvPair[K, V], 0, e.sh.cap)
	}
	for s := 0; s < e.sh.cap; s++ {
		if bm&(1<<s) == 0 {
			continue
		}
		k := e.cdc.slotKey(leaf, s)
		if !it.inWindow(k) {
			continue
		}
		it.batch = append(it.batch, kvPair[K, V]{k, e.cdc.slotValue(leaf, s)})
	}
	less := e.cdc.less
	sign := 1
	if it.reverse {
		sign = -1
	}
	slices.SortFunc(it.batch, func(a, b kvPair[K, V]) int {
		switch {
		case less(a.k, b.k):
			return -sign
		case less(b.k, a.k):
			return sign
		}
		return 0
	})
}

// inWindow reports whether k lies in the not-yet-emitted part of the window.
func (it *Iter[K, V]) inWindow(k K) bool {
	less := it.e.cdc.less
	if !it.reverse {
		if it.curSet {
			if !less(it.cur, k) {
				return false
			}
		} else if it.start.ok && less(k, it.start.key) {
			return false
		}
		return !it.end.ok || less(k, it.end.key)
	}
	if it.curSet {
		if !less(k, it.cur) {
			return false
		}
	} else if it.end.ok && !less(k, it.end.key) {
		return false
	}
	return !it.start.ok || !less(k, it.start.key)
}

// descendIter is descend plus tracking of BOTH the tightest right separator
// (ub: the reached leaf covers no key greater than it) and the tightest left
// separator (lb: the max key of the nearest left neighbor subtree — reverse
// iteration's next descent target). target==nil descends to the leftmost
// (rightmost=false) or rightmost (rightmost=true) leaf. ok=false means a
// conflict was observed; ref==nil an empty tree.
func (e *engine[K, V]) descendIter(target *K, rightmost bool) (n *cInner[K], ver uint64, ref *leafRef, lb, ub bound[K], ok bool) {
	av := e.cc.readBegin(&e.anchor)
	n = e.root.Load()
	ver = e.cc.readBegin(&n.lock)
	if !e.cc.validate(&e.anchor, av) {
		return nil, 0, nil, lb, ub, false
	}
	for {
		cnt := int(n.cnt.Load())
		var i int
		if target != nil {
			var sok bool
			i, sok = n.search(*target, e.cdc.less)
			if !sok {
				return nil, 0, nil, lb, ub, false
			}
		} else if rightmost && cnt > 0 {
			i = cnt - 1
		}
		if i > 0 && i <= cnt-1 {
			kp := n.keys[i-1].Load()
			if kp == nil {
				return nil, 0, nil, lb, ub, false
			}
			if !lb.ok || e.cdc.less(lb.key, *kp) {
				lb = bound[K]{*kp, true}
			}
		}
		if i < cnt-1 {
			kp := n.keys[i].Load()
			if kp == nil {
				return nil, 0, nil, lb, ub, false
			}
			if !ub.ok || e.cdc.less(*kp, ub.key) {
				ub = bound[K]{*kp, true}
			}
		}
		if !e.cc.validate(&n.lock, ver) {
			return nil, 0, nil, lb, ub, false
		}
		if n.leafParent {
			if cnt == 0 {
				return n, ver, nil, lb, ub, true // empty tree
			}
			r := n.leaves[i].Load()
			if r == nil || !e.cc.validate(&n.lock, ver) {
				return nil, 0, nil, lb, ub, false
			}
			return n, ver, r, lb, ub, true
		}
		child := n.kids[i].Load()
		if child == nil || !e.cc.validate(&n.lock, ver) {
			return nil, 0, nil, lb, ub, false
		}
		cver := e.cc.readBegin(&child.lock)
		if !e.cc.validate(&n.lock, ver) {
			return nil, 0, nil, lb, ub, false
		}
		n, ver = child, cver
	}
}
