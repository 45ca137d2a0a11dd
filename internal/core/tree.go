package core

import (
	"fptree/internal/scm"
)

// Tree is the single-threaded fixed-size-key FPTree: Selective Persistence
// (leaves in SCM, inner nodes in DRAM), Fingerprinting, unsorted leaves with
// a p-atomic validity bitmap, and amortized persistent allocations through
// leaf groups (Section 5, variant 1). Keys and values are 8-byte integers.
//
// The tree is not safe for concurrent use; CTree is the Selective
// Concurrency variant. Read-only calls (Find, Scan/ScanN, iterators) may be
// shared between goroutines while no writer runs: they write no
// unsynchronized state. Both are facades over the same generic engine — Tree
// pairs the fixed-key codec with the no-op concurrency controller.
type Tree struct {
	*engine[uint64, uint64]
}

// KV is one fixed-size key-value pair.
type KV struct {
	Key   uint64
	Value uint64
}

func newKV(k, v uint64) KV { return KV{k, v} }

// MemoryStats reports a tree's memory footprint split by medium, for the
// Figure 8 experiment.
type MemoryStats struct {
	SCMBytes  uint64 // SCM consumed by the whole arena's live allocations
	DRAMBytes uint64 // estimated DRAM held by inner nodes and volatile state
	Leaves    int
	Inners    int
}

// Create formats a new single-threaded FPTree in the pool. The pool must be
// empty (null root).
func Create(pool *scm.Pool, cfg Config) (*Tree, error) {
	e, err := createEngine(pool, cfg, keyKindFixed, fixedCodecOf, nopCC{})
	if err != nil {
		return nil, err
	}
	return &Tree{e}, nil
}

// Open recovers a single-threaded FPTree from a pool that survived a crash
// or restart: it replays the allocator intent and all micro-logs, then
// rebuilds the DRAM-resident inner nodes and the volatile free-leaf vector
// (Algorithm 9). An optional RecoveryOptions parallelizes the leaf scan; the
// recovered tree and arena are identical for every worker count.
func Open(pool *scm.Pool, opts ...RecoveryOptions) (*Tree, error) {
	e, err := openEngine(pool, keyKindFixed, fixedCodecOf, nopCC{}, recoveryOpts(opts))
	if err != nil {
		return nil, err
	}
	return &Tree{e}, nil
}

// Scan visits live pairs with key >= from in ascending key order until fn
// returns false.
func (t *Tree) Scan(from uint64, fn func(KV) bool) {
	t.engine.scan(from, func(k, v uint64) bool { return fn(KV{k, v}) })
}

// ScanN returns up to n pairs with key >= from (nil when n <= 0). The result
// is pre-sized to min(n, Len()), so a large n does not over-allocate.
func (t *Tree) ScanN(from uint64, n int) []KV { return scanN(t.engine, from, n, newKV) }

// Iterator returns a resumable ascending iterator over the window
// [start, end); end == 0 means unbounded. The iterator is created positioned
// on the window's first key (check Valid); Close it when done.
func (t *Tree) Iterator(start, end uint64) *FixedIterator {
	s, e := fixedIterBounds(start, end)
	return t.engine.iterator(s, e, false)
}

// ReverseIterator returns a resumable descending iterator over [start, end),
// positioned on the greatest key below end (end == 0: the maximum key).
func (t *Tree) ReverseIterator(start, end uint64) *FixedIterator {
	s, e := fixedIterBounds(start, end)
	return t.engine.iterator(s, e, true)
}
