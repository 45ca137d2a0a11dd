package core

import (
	"fptree/internal/scm"
)

// CVarTree is the concurrent variable-size-key FPTree: the Appendix C leaf
// format under the Selective Concurrency scheme of Section 4.2. It is a
// facade over the same generic engine as the other three variants — the
// variable-key codec paired with the speculative concurrency controller.
type CVarTree struct {
	*engine[[]byte, []byte]
}

// CCreateVar formats a new concurrent variable-size-key FPTree.
func CCreateVar(pool *scm.Pool, cfg Config) (*CVarTree, error) {
	e, err := createEngine(pool, cfg, keyKindVar, varCodecOf, occCC{pool})
	if err != nil {
		return nil, err
	}
	return &CVarTree{e}, nil
}

// COpenVar recovers a concurrent variable-size-key FPTree (Algorithm 9 plus
// the Algorithm 17 leak scan). An optional RecoveryOptions parallelizes the
// leaf scan.
func COpenVar(pool *scm.Pool, opts ...RecoveryOptions) (*CVarTree, error) {
	e, err := openEngine(pool, keyKindVar, varCodecOf, occCC{pool}, recoveryOpts(opts))
	if err != nil {
		return nil, err
	}
	return &CVarTree{e}, nil
}

// Scan visits live pairs with key >= from in ascending order until fn
// returns false, seeking leaf by leaf through the inner nodes.
func (t *CVarTree) Scan(from []byte, fn func(VarKV) bool) {
	t.engine.scan(from, func(k, v []byte) bool { return fn(VarKV{k, v}) })
}

// ScanN returns up to n pairs with key >= from (nil when n <= 0). The result
// is pre-sized to min(n, Len()), so a large n does not over-allocate.
func (t *CVarTree) ScanN(from []byte, n int) []VarKV { return scanN(t.engine, from, n, newVarKV) }

// Iterator returns a resumable ascending iterator over [start, end) in
// bytewise key order; a nil edge means unbounded. Safe to advance while
// other goroutines mutate the tree; see Iter for the exact guarantees.
func (t *CVarTree) Iterator(start, end []byte) *VarIterator {
	return t.engine.iterator(varIterBound(start), varIterBound(end), false)
}

// ReverseIterator returns a resumable descending iterator over [start, end),
// positioned on the greatest key below end (nil end: the maximum key).
func (t *CVarTree) ReverseIterator(start, end []byte) *VarIterator {
	return t.engine.iterator(varIterBound(start), varIterBound(end), true)
}
