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
//
// Beside each separator the node keeps pfx[i], the separator's
// order-preserving 8-byte prefix (codec.prefix), so a search compares words
// in the node's own memory and follows keys[i] only when the two prefixes tie
// and the codec's prefixes are not exact. setSep and moveSeps are the only
// writers of either array, so keys and pfx never disagree once the writer
// unlocks; a reader that sees them from different writes fails validation.
type cInner[K any] struct {
	lock       htm.VersionLock
	leafParent bool
	cnt        atomic.Int32
	keys       []atomic.Pointer[K]
	pfx        []atomic.Uint64
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
	// ver counts completed exclusive sections on this leaf. Both controllers
	// bump it when releasing the write lock (occCC before the release), so a
	// range cursor that cached the leaf's content under the shared lock can
	// later prove the cache is still current (see leafCursor.live) without
	// re-reading SCM.
	ver atomic.Uint64
}

func newCInner[K any](capacity int, leafParent bool) *cInner[K] {
	n := &cInner[K]{leafParent: leafParent}
	n.keys = make([]atomic.Pointer[K], capacity)
	n.pfx = make([]atomic.Uint64, capacity)
	if leafParent {
		n.leaves = make([]atomic.Pointer[leafRef], capacity)
	} else {
		n.kids = make([]atomic.Pointer[cInner[K]], capacity)
	}
	return n
}

func (n *cInner[K]) capacity() int { return len(n.keys) }

func (n *cInner[K]) full() bool { return int(n.cnt.Load()) == n.capacity() }

// search returns the child index covering key, whose prefix is kp. A probe
// whose prefix differs from kp is decided by the prefixes alone; a tie means
// equal keys when exact (the prefix is the whole key) and is otherwise
// decided by less on the full separator. ok is false when a torn concurrent
// mutation was observed (nil key); the caller must validate and restart.
// Writers holding the lock always see ok == true.
func (n *cInner[K]) search(key K, kp uint64, exact bool, less func(a, b K) bool) (int, bool) {
	cnt := int(n.cnt.Load())
	lo, hi := 0, cnt-1
	if hi < 0 {
		return 0, true
	}
	for lo < hi {
		mid := (lo + hi) / 2
		p := n.pfx[mid].Load()
		ge := p > kp // keys[mid] >= key
		if p == kp {
			ge = exact
			if !exact {
				sp := n.keys[mid].Load()
				if sp == nil {
					return 0, false
				}
				ge = !less(*sp, key)
			}
		}
		if ge {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// setSep stores separator i and its prefix p (a nil k clears the slot, with
// p = 0).
func (n *cInner[K]) setSep(i int, k *K, p uint64) {
	n.keys[i].Store(k)
	n.pfx[i].Store(p)
}

// moveSeps moves the m separators starting at src to start at dst, like copy
// (the ranges may overlap). Caller holds the lock. seq as in insertAt.
func (n *cInner[K]) moveSeps(dst, src, m int, seq bool) {
	if seq {
		copy(plainPtrs(n.keys)[dst:dst+m], plainPtrs(n.keys)[src:src+m])
		copy(plainU64s(n.pfx)[dst:dst+m], plainU64s(n.pfx)[src:src+m])
		return
	}
	if dst > src {
		for j := m - 1; j >= 0; j-- {
			n.setSep(dst+j, n.keys[src+j].Load(), n.pfx[src+j].Load())
		}
		return
	}
	for j := 0; j < m; j++ {
		n.setSep(dst+j, n.keys[src+j].Load(), n.pfx[src+j].Load())
	}
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

// plainU64s is plainPtrs for the prefix words; atomic.Uint64 is exactly one
// uint64 (its other fields are zero-size), which the assertion below pins.
func plainU64s(s []atomic.Uint64) []uint64 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&s[0])), len(s))
}

// Fail to compile if atomic.Pointer or atomic.Uint64 ever grows beyond one
// word.
var _ [unsafe.Sizeof(unsafe.Pointer(nil)) - unsafe.Sizeof(atomic.Pointer[int]{})]byte
var _ [8 - unsafe.Sizeof(atomic.Uint64{})]byte

// insertAt splices separator k (prefix p) at position i and a new right-hand
// child at i+1. Caller holds the lock and has ensured the node is not full.
// seq marks a single-threaded engine (no concurrent readers), enabling bulk
// shifts; inner-node fanouts are ~32× larger in the single-threaded
// configurations, so the element-wise atomic shift is the dominant split cost
// there.
func (n *cInner[K]) insertAt(i int, k *K, p uint64, newKid *cInner[K], newLeaf *leafRef, seq bool) {
	cnt := int(n.cnt.Load())
	n.moveSeps(i+1, i, cnt-1-i, seq)
	n.setSep(i, k, p)
	if seq {
		if n.leafParent {
			lv := plainPtrs(n.leaves)
			copy(lv[i+2:cnt+1], lv[i+1:cnt])
			lv[i+1] = newLeaf
		} else {
			kd := plainPtrs(n.kids)
			copy(kd[i+2:cnt+1], kd[i+1:cnt])
			kd[i+1] = newKid
		}
	} else if n.leafParent {
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
	if cnt >= 2 { // cnt == 1 removes the only child: there are no separators
		ki := min(i, cnt-2)
		n.moveSeps(ki, ki+1, cnt-2-ki, seq)
		n.setSep(cnt-2, nil, 0)
	}
	if seq {
		if n.leafParent {
			lv := plainPtrs(n.leaves)
			copy(lv[i:cnt-1], lv[i+1:cnt])
			lv[cnt-1] = nil
		} else {
			kd := plainPtrs(n.kids)
			copy(kd[i:cnt-1], kd[i+1:cnt])
			kd[cnt-1] = nil
		}
	} else if n.leafParent {
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
// and returns the promoted separator with its prefix. Caller holds the lock;
// the new node is not yet published anywhere.
func (n *cInner[K]) splitNode() (*K, uint64, *cInner[K]) {
	cnt := int(n.cnt.Load())
	mid := (cnt - 1) / 2 // separator index to promote
	up, upP := n.keys[mid].Load(), n.pfx[mid].Load()
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
			right.setSep(rc, n.keys[j].Load(), n.pfx[j].Load())
		}
		rc++
	}
	for j := mid; j < cnt-1; j++ {
		n.setSep(j, nil, 0)
	}
	right.cnt.Store(int32(rc))
	n.cnt.Store(int32(mid + 1))
	return up, upP, right
}
