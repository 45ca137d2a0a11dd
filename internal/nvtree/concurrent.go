package nvtree

import (
	"sync"
	"sync/atomic"

	"fptree/internal/keycell"
	"fptree/internal/scm"
)

// CIndex is the concurrent NV-Tree (NV-TreeC). Reads share a structure
// lock; appends serialize per leaf; splits, rebuilds and leaf removals take
// the exclusive structure lock. The exclusive lock on every structure
// modification is what limits the NV-Tree's write scalability in the paper's
// Figures 9-11 (inner nodes are contiguous, so a split cannot be localized).
type CIndex[K keycell.Key, V any] struct {
	mu    sync.RWMutex
	locks leafLocks
	size  atomic.Int64
	t     *Index[K, V]
}

// CTree is the concurrent fixed-size-key NV-Tree; CVarTree the var-key one.
type (
	CTree    = CIndex[uint64, uint64]
	CVarTree = CIndex[[]byte, []byte]
)

// leafLocks is a striped lock table for per-leaf append serialization.
type leafLocks struct {
	mus [256]sync.Mutex
}

func (l *leafLocks) lock(off uint64) *sync.Mutex {
	m := &l.mus[(off/64)%256]
	m.Lock()
	return m
}

func wrap[K keycell.Key, V any](t *Index[K, V], err error) (*CIndex[K, V], error) {
	if err != nil {
		return nil, err
	}
	c := &CIndex[K, V]{t: t}
	c.size.Store(int64(t.Len()))
	return c, nil
}

// CNew formats a concurrent fixed-size-key NV-Tree.
func CNew(pool *scm.Pool, cfg Config) (*CTree, error) { return wrap(New(pool, cfg)) }

// COpen recovers a concurrent fixed-size-key NV-Tree.
func COpen(pool *scm.Pool) (*CTree, error) { return wrap(Open(pool)) }

// CNewVar formats a concurrent variable-size-key NV-Tree.
func CNewVar(pool *scm.Pool, cfg Config) (*CVarTree, error) { return wrap(NewVar(pool, cfg)) }

// COpenVar recovers a concurrent variable-size-key NV-Tree.
func COpenVar(pool *scm.Pool) (*CVarTree, error) { return wrap(OpenVar(pool)) }

// Len returns the number of live keys.
func (c *CIndex[K, V]) Len() int { return int(c.size.Load()) }

// Pool returns the backing pool.
func (c *CIndex[K, V]) Pool() *scm.Pool { return c.t.Pool() }

// CheckInvariants validates the tree's structural invariants under the
// exclusive structure lock (testing and recovery aid).
func (c *CIndex[K, V]) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The concurrent writers count in c.size, past the tree's own counter,
	// which is what the check compares with the live entries.
	c.t.size = int(c.size.Load())
	return c.t.CheckInvariants()
}

// Find returns the value stored under key.
func (c *CIndex[K, V]) Find(key K) (V, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var zero V
	if len(c.t.plns) == 0 {
		return zero, false
	}
	_, _, l := c.t.findLeaf(key)
	m := c.locks.lock(l)
	defer m.Unlock()
	e, live := c.t.findInLeaf(l, key)
	if !live {
		return zero, false
	}
	return c.t.entryVal(l, e), true
}

// mutate runs fn under the reader structure lock with the target leaf's
// append lock held; when the leaf is full (or the tree empty), it retries
// under the exclusive lock, where splits and rebuilds are safe.
func (c *CIndex[K, V]) mutate(key K, fn func() error) error {
	c.mu.RLock()
	if len(c.t.plns) != 0 {
		_, _, l := c.t.findLeaf(key)
		m := c.locks.lock(l)
		// The count is only read under the leaf lock: a concurrent appender
		// may be filling the leaf.
		if c.t.leafCount(l) < c.t.leafCap {
			err := fn()
			m.Unlock()
			c.mu.RUnlock()
			return err
		}
		m.Unlock()
	}
	c.mu.RUnlock()
	// Slow path: exclusive structure lock (split / first leaf / rebuild).
	c.mu.Lock()
	defer c.mu.Unlock()
	return fn()
}

// Insert appends a key-value pair (upsert semantics).
func (c *CIndex[K, V]) Insert(key K, value V) error {
	return c.mutate(key, func() error {
		existed := false
		if len(c.t.plns) != 0 {
			_, _, existed = c.t.doFind(key)
		}
		if err := c.t.doInsert(entryInsert, key, value); err != nil {
			return err
		}
		if !existed {
			c.size.Add(1)
		}
		return nil
	})
}

// Update rewrites the value under key.
func (c *CIndex[K, V]) Update(key K, value V) (bool, error) {
	ok := false
	err := c.mutate(key, func() error {
		if _, _, found := c.t.doFind(key); !found {
			return nil
		}
		ok = true
		return c.t.doInsert(entryInsert, key, value)
	})
	return ok, err
}

// Upsert inserts or updates.
func (c *CIndex[K, V]) Upsert(key K, value V) error { return c.Insert(key, value) }

// Delete appends a tombstone.
func (c *CIndex[K, V]) Delete(key K) (bool, error) {
	ok := false
	err := c.mutate(key, func() error {
		if _, _, found := c.t.doFind(key); !found {
			return nil
		}
		var zero V
		if err := c.t.doInsert(entryDelete, key, zero); err != nil {
			return err
		}
		ok = true
		c.size.Add(-1)
		return nil
	})
	return ok, err
}

// Scan visits live pairs with key >= from under the structure lock.
func (c *CIndex[K, V]) Scan(from K, fn func(k K, v V) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.t.Scan(from, fn)
}

// Rebuilds returns the number of full inner rebuilds so far.
func (c *CIndex[K, V]) Rebuilds() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Rebuilds()
}
