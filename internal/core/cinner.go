package core

import (
	"sync/atomic"
	"unsafe"

	"fptree/internal/htm"
)

// cInner is a DRAM inner node of the concurrent trees. Every mutation
// happens under the node's version lock; readers traverse optimistically and
// validate versions, which is the software equivalent of running the
// traversal inside an HTM transaction (see package htm). All fields readers
// touch are atomics so optimistic reads are race-free; a reader that observes
// a half-applied mutation simply fails validation and restarts.
//
// A node holds cnt children and cnt-1 separators. Separators are "max key of
// the left subtree". Arrays are allocated at the node's fixed capacity; a
// node is full at cnt == cap and is split preemptively during SMO descents,
// so an insertion never overflows.
type cInner[K any] struct {
	lock       htm.VersionLock
	leafParent bool
	cnt        atomic.Int32
	keys       []atomic.Pointer[K]
	kids       []atomic.Pointer[cInner[K]]
	leaves     []atomic.Pointer[leafRef]
}

// leafRef is the volatile handle of one SCM leaf: the leaf's arena offset
// plus its lock. The paper stores a lock byte inside the leaf but never
// persists it; keeping the live lock in DRAM is the exact equivalent
// (recovery "resets" leaf locks by building fresh handles). A deleted leaf's
// handle stays write-locked forever, so stale readers bounce and re-descend
// instead of touching reclaimed SCM.
type leafRef struct {
	off  uint64
	lk   htm.RWSpin
	dead atomic.Bool
	// ver counts completed exclusive sections on this leaf. The concurrent
	// controller bumps it before releasing the write lock, so a range cursor
	// that cached the leaf's content under the shared lock can later prove the
	// cache is still current (see leafCursor.live) without re-reading SCM.
	ver atomic.Uint64
}

func newCInner[K any](capacity int, leafParent bool) *cInner[K] {
	n := &cInner[K]{leafParent: leafParent}
	n.keys = make([]atomic.Pointer[K], capacity)
	if leafParent {
		n.leaves = make([]atomic.Pointer[leafRef], capacity)
	} else {
		n.kids = make([]atomic.Pointer[cInner[K]], capacity)
	}
	return n
}

func (n *cInner[K]) capacity() int { return len(n.keys) }

func (n *cInner[K]) full() bool { return int(n.cnt.Load()) == n.capacity() }

// search returns the child index covering key. ok is false when a torn
// concurrent mutation was observed (nil key); the caller must validate and
// restart. Writers holding the lock always see ok == true.
func (n *cInner[K]) search(key K, less func(a, b K) bool) (int, bool) {
	cnt := int(n.cnt.Load())
	lo, hi := 0, cnt-1
	if hi < 0 {
		return 0, true
	}
	for lo < hi {
		mid := (lo + hi) / 2
		kp := n.keys[mid].Load()
		if kp == nil {
			return 0, false
		}
		if !less(*kp, key) { // keys[mid] >= key
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// plainPtrs reinterprets a slice of atomic pointers as a slice of plain
// pointers so shifts can use bulk copy (memmove with write barriers) instead
// of one atomic store per element. atomic.Pointer[T] is exactly one machine
// pointer (its other fields are zero-size), which the compile-time assertion
// below pins. Only the single-threaded engine may take this path: with
// concurrent optimistic readers the per-element atomic stores are what keeps
// torn reads detectable-but-race-free.
func plainPtrs[T any](s []atomic.Pointer[T]) []*T {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((**T)(unsafe.Pointer(&s[0])), len(s))
}

// Fails to compile if atomic.Pointer ever grows beyond one pointer word.
var _ [unsafe.Sizeof(unsafe.Pointer(nil)) - unsafe.Sizeof(atomic.Pointer[int]{})]byte

// insertAt splices separator k at position i and a new right-hand child at
// i+1. Caller holds the lock and has ensured the node is not full. seq marks
// a single-threaded engine (no concurrent readers), enabling bulk shifts;
// inner-node fanouts are ~32× larger in the single-threaded configurations,
// so the element-wise atomic shift is the dominant split cost there.
func (n *cInner[K]) insertAt(i int, k K, newKid *cInner[K], newLeaf *leafRef, seq bool) {
	cnt := int(n.cnt.Load())
	if seq {
		keys := plainPtrs(n.keys)
		copy(keys[i+1:cnt], keys[i:cnt-1])
		keys[i] = &k
		if n.leafParent {
			lv := plainPtrs(n.leaves)
			copy(lv[i+2:cnt+1], lv[i+1:cnt])
			lv[i+1] = newLeaf
		} else {
			kd := plainPtrs(n.kids)
			copy(kd[i+2:cnt+1], kd[i+1:cnt])
			kd[i+1] = newKid
		}
		n.cnt.Store(int32(cnt + 1))
		return
	}
	for j := cnt - 2; j >= i; j-- {
		n.keys[j+1].Store(n.keys[j].Load())
	}
	n.keys[i].Store(&k)
	if n.leafParent {
		for j := cnt - 1; j >= i+1; j-- {
			n.leaves[j+1].Store(n.leaves[j].Load())
		}
		n.leaves[i+1].Store(newLeaf)
	} else {
		for j := cnt - 1; j >= i+1; j-- {
			n.kids[j+1].Store(n.kids[j].Load())
		}
		n.kids[i+1].Store(newKid)
	}
	n.cnt.Store(int32(cnt + 1))
}

// removeAt removes child i and the separator delimiting it. Caller holds the
// lock. seq as in insertAt.
func (n *cInner[K]) removeAt(i int, seq bool) {
	cnt := int(n.cnt.Load())
	ki := i
	if ki == cnt-1 {
		ki = cnt - 2
	}
	if seq {
		if cnt >= 2 { // cnt == 1 removes the only child: ki is -1, no separators
			keys := plainPtrs(n.keys)
			copy(keys[ki:cnt-2], keys[ki+1:cnt-1])
			keys[cnt-2] = nil
		}
		if n.leafParent {
			lv := plainPtrs(n.leaves)
			copy(lv[i:cnt-1], lv[i+1:cnt])
			lv[cnt-1] = nil
		} else {
			kd := plainPtrs(n.kids)
			copy(kd[i:cnt-1], kd[i+1:cnt])
			kd[cnt-1] = nil
		}
		n.cnt.Store(int32(cnt - 1))
		return
	}
	for j := ki; j < cnt-2; j++ {
		n.keys[j].Store(n.keys[j+1].Load())
	}
	if cnt >= 2 {
		n.keys[cnt-2].Store(nil)
	}
	if n.leafParent {
		for j := i; j < cnt-1; j++ {
			n.leaves[j].Store(n.leaves[j+1].Load())
		}
		n.leaves[cnt-1].Store(nil)
	} else {
		for j := i; j < cnt-1; j++ {
			n.kids[j].Store(n.kids[j+1].Load())
		}
		n.kids[cnt-1].Store(nil)
	}
	n.cnt.Store(int32(cnt - 1))
}

// splitNode moves the upper half of a full node into a fresh right sibling
// and returns the promoted separator. Caller holds the lock; the new node is
// not yet published anywhere.
func (n *cInner[K]) splitNode() (K, *cInner[K]) {
	cnt := int(n.cnt.Load())
	mid := (cnt - 1) / 2 // separator index to promote
	up := *n.keys[mid].Load()
	right := newCInner[K](n.capacity(), n.leafParent)
	rc := 0
	for j := mid + 1; j < cnt; j++ {
		if n.leafParent {
			right.leaves[rc].Store(n.leaves[j].Load())
			n.leaves[j].Store(nil)
		} else {
			right.kids[rc].Store(n.kids[j].Load())
			n.kids[j].Store(nil)
		}
		if j < cnt-1 {
			right.keys[rc].Store(n.keys[j].Load())
		}
		rc++
	}
	for j := mid; j < cnt-1; j++ {
		n.keys[j].Store(nil)
	}
	right.cnt.Store(int32(rc))
	n.cnt.Store(int32(mid + 1))
	return up, right
}
