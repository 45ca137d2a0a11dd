package core

import (
	"fptree/internal/scm"
)

// CTree is the concurrent fixed-size-key FPTree (Section 5, variant 2):
// Selective Concurrency over Selective Persistence. The transient part (the
// DRAM inner nodes) is traversed optimistically with version validation —
// the package htm emulation of running the traversal inside an HTM
// transaction — while the persistent part (the SCM leaves) is protected by
// fine-grained leaf locks, and all persistence primitives execute outside
// the optimistic region, exactly as in Figure 6. Structure modifications
// re-descend pessimistically with lock crabbing and split full nodes
// preemptively. Leaf groups are not used: as the paper notes, they are a
// central synchronization point that hinders scalability.
//
// CTree is a facade over the same generic engine as Tree — it pairs the
// fixed-key codec with the speculative concurrency controller.
type CTree struct {
	*engine[uint64, uint64]
}

// CCreate formats a new concurrent FPTree in the pool.
func CCreate(pool *scm.Pool, cfg Config) (*CTree, error) {
	e, err := createEngine(pool, cfg, keyKindFixed, fixedCodecOf, occCC{pool})
	if err != nil {
		return nil, err
	}
	return &CTree{e}, nil
}

// COpen recovers a concurrent FPTree: the allocator intent and every
// micro-log in the split and delete arrays are replayed, then the inner
// nodes are rebuilt from the leaf list and all leaf locks are reset (fresh
// handles), per Algorithm 9. An optional RecoveryOptions parallelizes the
// leaf scan.
func COpen(pool *scm.Pool, opts ...RecoveryOptions) (*CTree, error) {
	e, err := openEngine(pool, keyKindFixed, fixedCodecOf, occCC{pool}, recoveryOpts(opts))
	if err != nil {
		return nil, err
	}
	return &CTree{e}, nil
}

// Scan visits live pairs with key >= from in ascending order until fn
// returns false. Unlike the single-threaded tree, the concurrent scan does
// not chase persistent next pointers (a concurrently deallocated leaf could
// be reused under the reader); it seeks leaf by leaf through the inner
// nodes, using the separators to find each leaf's upper bound.
func (t *CTree) Scan(from uint64, fn func(KV) bool) {
	t.engine.scan(from, func(k, v uint64) bool { return fn(KV{k, v}) })
}

// ScanN returns up to n pairs with key >= from (nil when n <= 0). The result
// is pre-sized to min(n, Len()), so a large n does not over-allocate.
func (t *CTree) ScanN(from uint64, n int) []KV { return scanN(t.engine, from, n, newKV) }

// Iterator returns a resumable ascending iterator over [start, end); end == 0
// means unbounded. Safe to advance while other goroutines mutate the tree:
// each step revalidates the cached leaf's version and re-seeks from the last
// returned key on conflict. See Iter for the exact guarantees.
func (t *CTree) Iterator(start, end uint64) *FixedIterator {
	s, e := fixedIterBounds(start, end)
	return t.engine.iterator(s, e, false)
}

// ReverseIterator returns a resumable descending iterator over [start, end),
// positioned on the greatest key below end (end == 0: the maximum key).
// Reverse steps re-seek through the inner index — the leaf list only links
// forward — so reverse iteration costs one descent per leaf.
func (t *CTree) ReverseIterator(start, end uint64) *FixedIterator {
	s, e := fixedIterBounds(start, end)
	return t.engine.iterator(s, e, true)
}
