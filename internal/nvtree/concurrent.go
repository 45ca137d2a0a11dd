package nvtree

import (
	"sync"
	"sync/atomic"

	"fptree/internal/scm"
)

// CTree is the concurrent fixed-size-key NV-Tree. Reads share a structure
// lock; appends serialize per leaf; splits, rebuilds and leaf removals take
// the exclusive structure lock. The exclusive lock on every structure
// modification is what limits the NV-Tree's write scalability in the paper's
// Figures 9-11 (inner nodes are contiguous, so a split cannot be localized).
type CTree struct {
	mu    sync.RWMutex
	locks leafLocks
	size  atomic.Int64
	t     *Tree
}

// CVarTree is the concurrent variable-size-key NV-Tree.
type CVarTree struct {
	mu    sync.RWMutex
	locks leafLocks
	size  atomic.Int64
	t     *VarTree
}

// leafLocks is a striped lock table for per-leaf append serialization.
type leafLocks struct {
	mus [256]sync.Mutex
}

func (l *leafLocks) lock(off uint64) *sync.Mutex {
	m := &l.mus[(off/64)%256]
	m.Lock()
	return m
}

// CNew formats a concurrent fixed-size-key NV-Tree.
func CNew(pool *scm.Pool, cfg Config) (*CTree, error) {
	t, err := New(pool, cfg)
	if err != nil {
		return nil, err
	}
	return &CTree{t: t}, nil
}

// COpen recovers a concurrent fixed-size-key NV-Tree.
func COpen(pool *scm.Pool, innerCap int) (*CTree, error) {
	t, err := Open(pool, innerCap)
	if err != nil {
		return nil, err
	}
	c := &CTree{t: t}
	c.size.Store(int64(t.Len()))
	return c, nil
}

// CNewVar formats a concurrent variable-size-key NV-Tree.
func CNewVar(pool *scm.Pool, cfg Config) (*CVarTree, error) {
	t, err := NewVar(pool, cfg)
	if err != nil {
		return nil, err
	}
	return &CVarTree{t: t}, nil
}

// COpenVar recovers a concurrent variable-size-key NV-Tree.
func COpenVar(pool *scm.Pool, innerCap int) (*CVarTree, error) {
	t, err := OpenVar(pool, innerCap)
	if err != nil {
		return nil, err
	}
	c := &CVarTree{t: t}
	c.size.Store(int64(t.Len()))
	return c, nil
}

// Len returns the number of live keys.
func (c *CTree) Len() int { return int(c.size.Load()) }

// Pool returns the backing pool.
func (c *CTree) Pool() *scm.Pool { return c.t.Pool() }

// CheckInvariants validates the tree's structural invariants under the
// exclusive structure lock (testing and recovery aid).
func (c *CTree) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The concurrent writers count in c.size, past the base's own counter,
	// which is what the check compares with the live entries.
	c.t.size = int(c.size.Load())
	return c.t.CheckInvariants()
}

// Find returns the value stored under key.
func (c *CTree) Find(key uint64) (uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.t.plns) == 0 {
		return 0, false
	}
	_, _, l := c.t.findLeaf(key, nil)
	m := c.locks.lock(l)
	defer m.Unlock()
	e, live := c.t.findInLeaf(l, key, nil)
	if !live {
		return 0, false
	}
	return c.t.entryValF(l, e), true
}

// mutate runs fn under the reader structure lock with the target leaf's
// append lock held; when the leaf is full (or the tree empty), it retries
// under the exclusive lock, where splits and rebuilds are safe.
func (c *CTree) mutate(key uint64, fn func() error) error {
	c.mu.RLock()
	if len(c.t.plns) != 0 {
		_, _, l := c.t.findLeaf(key, nil)
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
func (c *CTree) Insert(key, value uint64) error {
	return c.mutate(key, func() error {
		existed := false
		if len(c.t.plns) != 0 {
			_, _, existed = c.t.doFind(key, nil)
		}
		if err := c.t.doInsert(entryInsert, key, nil, value, nil); err != nil {
			return err
		}
		if !existed {
			c.size.Add(1)
		}
		return nil
	})
}

// Update rewrites the value under key.
func (c *CTree) Update(key, value uint64) (bool, error) {
	ok := false
	err := c.mutate(key, func() error {
		if _, _, found := c.t.doFind(key, nil); !found {
			return nil
		}
		ok = true
		return c.t.doInsert(entryInsert, key, nil, value, nil)
	})
	return ok, err
}

// Upsert inserts or updates.
func (c *CTree) Upsert(key, value uint64) error { return c.Insert(key, value) }

// Delete appends a tombstone.
func (c *CTree) Delete(key uint64) (bool, error) {
	ok := false
	err := c.mutate(key, func() error {
		if _, _, found := c.t.doFind(key, nil); !found {
			return nil
		}
		ok = true
		if err := c.t.doInsert(entryDelete, key, nil, 0, nil); err != nil {
			return err
		}
		c.size.Add(-1)
		return nil
	})
	return ok, err
}

// Scan visits live pairs with key >= from under the structure lock.
func (c *CTree) Scan(from uint64, fn func(k, v uint64) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.t.Scan(from, fn)
}

// Stats: full inner rebuilds so far.
func (c *CTree) Rebuilds() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Rebuilds()
}

// --- var-key concurrent API -------------------------------------------------

// Len returns the number of live keys.
func (c *CVarTree) Len() int { return int(c.size.Load()) }

// Pool returns the backing pool.
func (c *CVarTree) Pool() *scm.Pool { return c.t.Pool() }

// CheckInvariants validates the tree's structural invariants under the
// exclusive structure lock (testing and recovery aid).
func (c *CVarTree) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The concurrent writers count in c.size, past the base's own counter,
	// which is what the check compares with the live entries.
	c.t.size = int(c.size.Load())
	return c.t.CheckInvariants()
}

// Find returns a copy of the value stored under key.
func (c *CVarTree) Find(key []byte) ([]byte, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.t.plns) == 0 {
		return nil, false
	}
	_, _, l := c.t.findLeaf(0, key)
	m := c.locks.lock(l)
	defer m.Unlock()
	e, live := c.t.findInLeaf(l, 0, key)
	if !live {
		return nil, false
	}
	return c.t.entryValV(l, e), true
}

func (c *CVarTree) mutate(key []byte, fn func() error) error {
	c.mu.RLock()
	if len(c.t.plns) != 0 {
		_, _, l := c.t.findLeaf(0, key)
		m := c.locks.lock(l)
		if c.t.leafCount(l) < c.t.leafCap {
			err := fn()
			m.Unlock()
			c.mu.RUnlock()
			return err
		}
		m.Unlock()
	}
	c.mu.RUnlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return fn()
}

// Insert appends a key-value pair (upsert semantics).
func (c *CVarTree) Insert(key, value []byte) error {
	return c.mutate(key, func() error {
		existed := false
		if len(c.t.plns) != 0 {
			_, _, existed = c.t.doFind(0, key)
		}
		if err := c.t.doInsert(entryInsert, 0, key, 0, value); err != nil {
			return err
		}
		if !existed {
			c.size.Add(1)
		}
		return nil
	})
}

// Update rewrites the value under key.
func (c *CVarTree) Update(key, value []byte) (bool, error) {
	ok := false
	err := c.mutate(key, func() error {
		if _, _, found := c.t.doFind(0, key); !found {
			return nil
		}
		ok = true
		return c.t.doInsert(entryInsert, 0, key, 0, value)
	})
	return ok, err
}

// Upsert inserts or updates.
func (c *CVarTree) Upsert(key, value []byte) error { return c.Insert(key, value) }

// Delete appends a tombstone.
func (c *CVarTree) Delete(key []byte) (bool, error) {
	ok := false
	err := c.mutate(key, func() error {
		if _, _, found := c.t.doFind(0, key); !found {
			return nil
		}
		ok = true
		if err := c.t.doInsert(entryDelete, 0, key, 0, nil); err != nil {
			return err
		}
		c.size.Add(-1)
		return nil
	})
	return ok, err
}

// Scan visits live pairs with key >= from under the structure lock.
func (c *CVarTree) Scan(from []byte, fn func(k, v []byte) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.t.Scan(from, fn)
}
