package core

import (
	"slices"

	"fptree/internal/obs/trace"
)

// Range reads. Scan/ScanN and the resumable iterators read the tree through
// one device, the leaf cursor: it follows the leaf sibling order the paper's
// scans use (Figure 2: leaves are unsorted, so each visited leaf is sorted in
// DRAM), with one twist that makes it safe under Selective Concurrency.
// Every batch of keys is read from one leaf under its shared lock together
// with the leaf's modification version, so a batch is a consistent picture
// of that leaf at one instant and can later be proven still current without
// touching SCM again.
//
// A scan consumes the cursor by batch: it emits a whole validated batch, then
// asks for the next leaf. An iterator consumes it by key and outlives any one
// call, so it revalidates the leaf version before each emission and, on
// conflict (the leaf was split, merged or mutated underneath) or exhaustion,
// re-seeks from the last key it returned. Iteration is therefore linearizable
// per step: every emitted key was live at its emission instant, emission is
// strictly monotonic (no key is ever returned twice), and a key that is
// present for the whole session and inside the window is never skipped.
//
// What neither provides is a snapshot: keys inserted or deleted concurrently
// behind the cursor are simply outside its past, and ones ahead of it may or
// may not be observed depending on when the mutation lands relative to the
// cursor's arrival.
//
// The cursor steps to a neighbor leaf through the inner nodes, using the
// separators its descent recorded (see separators): forward to the successor
// of ub, backward to lb, which strictly decreases at every hop and so
// guarantees termination. It never follows the persistent next pointer: a
// concurrently deallocated leaf could be reused under the reader. Both
// controllers run this one path; the single-threaded one bumps leaf versions
// too (nopCC.unlockLeaf), so its cursors revalidate the same way.

type kvPair[K, V any] struct {
	k K
	v V
}

// leafCursor is the engine's one range reader over a [start, end) window.
type leafCursor[K, V any] struct {
	e       *engine[K, V]
	reverse bool
	start   bound[K] // inclusive lower window edge
	end     bound[K] // exclusive upper window edge

	// sp is the span of the scan driving the cursor, which covers every leaf
	// the scan visits. An iterator rests between calls, so it leaves scan
	// unset and each of its seeks is traced as its own OpIterSeek.
	scan bool
	sp   *trace.Span

	last    K // last key handed out: the exclusive resume point
	emitted bool

	batch []kvPair[K, V] // remaining window keys of the current leaf, in emission order
	past  bool           // the current leaf holds a key beyond the window's far edge

	haveLeaf bool
	ref      *leafRef      // leaf handle the batch was read from (revalidation)
	leafVer  uint64        // ref.ver at batch time
	sep      separators[K] // of the batch leaf's descent: the neighbor steps
	done     bool
}

// next makes a non-empty batch that provably matches its live leaf current,
// stepping to the neighbor leaf when the batch is exhausted and re-seeking
// from the last key handed out when the leaf changed underneath. It returns
// false once the window is exhausted.
func (c *leafCursor[K, V]) next() bool {
	for !c.done {
		if len(c.batch) > 0 {
			if c.live() {
				return true
			}
			// Conflict: the batch may contain stale pairs.
			c.batch = c.batch[:0]
			c.haveLeaf = false
		}
		var ok bool
		if c.haveLeaf && c.live() {
			ok = c.step()
		} else {
			ok = c.resume()
		}
		if !ok {
			c.finish()
		}
	}
	return false
}

func (c *leafCursor[K, V]) finish() {
	c.done = true
	c.haveLeaf = false
	c.ref = nil
	c.batch = nil
}

// live reports whether the batch still matches the leaf it was read from: the
// leaf is neither deleted nor was its version bumped by a writer
// (unlockLeaf).
func (c *leafCursor[K, V]) live() bool {
	return !c.ref.dead.Load() && c.ref.ver.Load() == c.leafVer
}

// step moves from an exhausted, intact leaf to its neighbor. Returns false
// when the window ends with this leaf.
func (c *leafCursor[K, V]) step() bool {
	e := c.e
	c.haveLeaf = false
	if c.past {
		return false
	}
	if c.reverse {
		if !c.sep.lb.ok || (c.start.ok && e.cdc.less(c.sep.lb.key, c.start.key)) {
			return false // leftmost leaf of the window done
		}
		t := c.sep.lb.key // copied: the descent overwrites c.sep
		return c.seek(&t, false)
	}
	if !c.sep.ub.ok {
		return false // rightmost leaf done
	}
	t, ok := e.cdc.nextAfter(c.sep.ub.key)
	if !ok || (c.end.ok && !e.cdc.less(t, c.end.key)) {
		return false
	}
	return c.seek(&t, false)
}

// resume seeks to the leaf covering the resume point: just past the last key
// handed out, or the window edge when there is none yet. Returns false when
// the window is exhausted or the tree is empty.
func (c *leafCursor[K, V]) resume() bool {
	switch {
	case c.emitted && c.reverse:
		t := c.last
		return c.seek(&t, false)
	case c.emitted:
		t, ok := c.e.cdc.nextAfter(c.last)
		if !ok || (c.end.ok && !c.e.cdc.less(t, c.end.key)) {
			return false
		}
		return c.seek(&t, false)
	case c.reverse && c.end.ok:
		t := c.end.key
		return c.seek(&t, false)
	case !c.reverse && c.start.ok:
		t := c.start.key
		return c.seek(&t, false)
	}
	return c.seek(nil, c.reverse) // leftmost / rightmost leaf
}

// seek acquires the leaf covering target (nil: the leftmost or rightmost
// leaf) in shared mode, fills the batch from it and records the revalidation
// state plus the separators for stepping. Returns false only for an empty
// tree.
func (c *leafCursor[K, V]) seek(target *K, rightmost bool) bool {
	e := c.e
	sp := c.sp
	if !c.scan {
		sp = e.tr.Start(trace.OpIterSeek)
	}
	_, ref := e.acquireLeaf(target, rightmost, &c.sep, nil, sp)
	if ref != nil {
		// Version and content form a consistent pair: writers bump ref.ver
		// before releasing the exclusive lock, which cannot be held while we
		// hold the shared lock.
		c.ref, c.leafVer = ref, ref.ver.Load()
		c.fill(ref.off)
		e.cc.rUnlockLeaf(ref)
		c.haveLeaf = true
	}
	if !c.scan {
		sp.Finish()
	}
	return ref != nil
}

// fill reads the leaf's valid pairs, sorted, through the codec, keeps the ones
// in the not-yet-emitted part of the window (cursor-exclusive on the emission
// side, window edges otherwise) and puts them in emission order.
func (c *leafCursor[K, V]) fill(leaf uint64) {
	e := c.e
	c.past = false
	if c.batch == nil {
		c.batch = make([]kvPair[K, V], 0, e.sh.cap)
	}
	pairs := e.cdc.leafPairs(leaf, e.leafBitmap(leaf), c.batch[:0])
	c.batch = pairs[:0]
	for _, kv := range pairs {
		behind, beyond := c.outside(kv.k)
		c.past = c.past || beyond
		if !behind && !beyond {
			c.batch = append(c.batch, kv)
		}
	}
	if c.reverse {
		slices.Reverse(c.batch)
	}
}

// outside classifies k against what is left of the window: behind the resume
// point (already handed out, or before the near edge when nothing was yet),
// or beyond the far edge.
func (c *leafCursor[K, V]) outside(k K) (behind, beyond bool) {
	less := c.e.cdc.less
	if c.reverse {
		beyond = c.start.ok && less(k, c.start.key)
		if c.emitted {
			return !less(k, c.last), beyond
		}
		return c.end.ok && !less(k, c.end.key), beyond
	}
	beyond = c.end.ok && !less(k, c.end.key)
	if c.emitted {
		return !less(c.last, k), beyond
	}
	return c.start.ok && less(k, c.start.key), beyond
}

// scan visits live pairs with key >= from in ascending key order until fn
// returns false, one validated leaf batch at a time.
func (e *engine[K, V]) scan(from K, fn func(K, V) bool) {
	sp := e.tr.Start(trace.OpScan)
	c := leafCursor[K, V]{e: e, start: bound[K]{from, true}, scan: true, sp: sp}
leaves:
	for c.next() {
		for _, kv := range c.batch {
			if !fn(kv.k, kv.v) {
				break leaves
			}
		}
		c.last, c.emitted = c.batch[len(c.batch)-1].k, true
		c.batch = c.batch[:0]
	}
	sp.Finish()
}

// Iter is a resumable iterator over a [start, end) window of the tree,
// created by Index.Iterator and Index.ReverseIterator. A freshly created
// iterator is already positioned on the first key of the window (check
// Valid); Next advances. Iterators are not safe for concurrent use by
// multiple goroutines, but on the concurrent trees they may run alongside
// writers. Close releases the iterator; it must not be used after the tree
// is re-opened (Recover builds a new engine).
type Iter[K, V any] struct {
	c     leafCursor[K, V]
	v     V
	valid bool
}

func (e *engine[K, V]) iterator(start, end bound[K], reverse bool) *Iter[K, V] {
	it := &Iter[K, V]{c: leafCursor[K, V]{e: e, reverse: reverse, start: start, end: end}}
	if start.ok && end.ok && !e.cdc.less(start.key, end.key) {
		it.c.done = true // empty window
		return it
	}
	it.Next()
	return it
}

// Valid reports whether the iterator is positioned on a key.
func (it *Iter[K, V]) Valid() bool { return it.valid }

// Key returns the key the iterator is positioned on.
func (it *Iter[K, V]) Key() K { return it.c.last }

// Value returns the value the iterator is positioned on.
func (it *Iter[K, V]) Value() V { return it.v }

// Next advances to the next key of the window and reports whether one
// exists. The key is served from the cursor's batch only after the batch was
// revalidated against its leaf.
func (it *Iter[K, V]) Next() bool {
	c := &it.c
	if it.valid = c.next(); it.valid {
		kv := c.batch[0]
		c.batch = c.batch[1:]
		c.last, c.emitted, it.v = kv.k, true, kv.v
	}
	return it.valid
}

// Close releases the iterator. Further calls report an exhausted iterator.
func (it *Iter[K, V]) Close() {
	it.c.finish()
	it.valid = false
}
