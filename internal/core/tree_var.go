package core

import (
	"fptree/internal/scm"
)

// VarTree is the single-threaded variable-size-key FPTree (Appendix C).
// Keys are byte strings; each leaf slot holds a 16-byte key cell, the key and
// value lengths, and an inline value of up to Config.ValueSize bytes, returned
// at the length it was stored with. A key of at most 16
// bytes is stored in the cell. A longer key is stored in a separately
// allocated SCM block and the cell holds the persistent pointer to it: its
// insert allocates the key through the leak-prevention allocator interface
// (the slot's own pointer cell is the owner), and recovery runs the
// Algorithm 17 scan that reclaims keys orphaned by a crash.
//
// VarTree is a facade over the same generic engine as Tree — it pairs the
// variable-key codec with the no-op concurrency controller.
type VarTree struct {
	*engine[[]byte, []byte]
}

// VarKV is one variable-size-key pair.
type VarKV struct {
	Key   []byte
	Value []byte
}

func newVarKV(k, v []byte) VarKV { return VarKV{k, v} }

// CreateVar formats a new single-threaded variable-size-key FPTree.
func CreateVar(pool *scm.Pool, cfg Config) (*VarTree, error) {
	e, err := createEngine(pool, cfg, keyKindVar, varCodecOf, nopCC{})
	if err != nil {
		return nil, err
	}
	return &VarTree{e}, nil
}

// OpenVar recovers a variable-size-key FPTree: allocator intent, micro-logs,
// the Algorithm 17 leak scan, then the inner-node rebuild. An optional
// RecoveryOptions parallelizes the leaf scan.
func OpenVar(pool *scm.Pool, opts ...RecoveryOptions) (*VarTree, error) {
	e, err := openEngine(pool, keyKindVar, varCodecOf, nopCC{}, recoveryOpts(opts))
	if err != nil {
		return nil, err
	}
	return &VarTree{e}, nil
}

// Scan visits live pairs with key >= from in ascending order until fn
// returns false.
func (t *VarTree) Scan(from []byte, fn func(VarKV) bool) {
	t.engine.scan(from, func(k, v []byte) bool { return fn(VarKV{k, v}) })
}

// ScanN returns up to n pairs with key >= from (nil when n <= 0). The result
// is pre-sized to min(n, Len()), so a large n does not over-allocate.
func (t *VarTree) ScanN(from []byte, n int) []VarKV { return scanN(t.engine, from, n, newVarKV) }

// Iterator returns a resumable ascending iterator over [start, end) in
// bytewise key order; a nil edge means unbounded. The iterator is created
// positioned on the window's first key (check Valid); Close it when done.
func (t *VarTree) Iterator(start, end []byte) *VarIterator {
	return t.engine.iterator(varIterBound(start), varIterBound(end), false)
}

// ReverseIterator returns a resumable descending iterator over [start, end),
// positioned on the greatest key below end (nil end: the maximum key).
func (t *VarTree) ReverseIterator(start, end []byte) *VarIterator {
	return t.engine.iterator(varIterBound(start), varIterBound(end), true)
}
