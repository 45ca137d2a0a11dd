package crashtest

// Rigs couple each persistent tree with its recovery, invariant-check and
// scan hooks so the enumeration and differential drivers treat every tree,
// under either key kind, alike: adding a tree or a codec to the grid is one
// row of fixedRigs or varRigs. Test-only: the crashtest package itself
// depends only on scm and htm; these internal test files may import the tree
// packages freely (none of them import crashtest outside their own tests).

import (
	"encoding/binary"
	"testing"

	"fptree/internal/core"
	"fptree/internal/nvtree"
	"fptree/internal/scm"
	"fptree/internal/wbtree"
)

// testPoolBytes keeps every harness pool small enough that the whole matrix
// runs in CI (the enumeration loops re-execute ops thousands of times).
const testPoolBytes = 16 << 20

func newTestPool() *scm.Pool {
	return scm.NewPool(testPoolBytes, scm.LatencyConfig{CacheBytes: -1})
}

// Harness var values are exactly 8 bytes wherever the NV-Tree and the wBTree
// take part: it matches the trees' configured inline ValueSize (so contents
// round-trip byte-for-byte) and packs into the wBTree's uint64 payload.
const varValLen = 8

// kvValSize is the value field of kvserver's trees (a 120-byte value behind
// its 2-byte frame; the 152-byte slot split into a head line and a tail). The
// FPTree rigs built at this width are handed values of mixed lengths, on both
// sides of the 40 bytes a head holds (VarValue).
const kvValSize = 122

func pack8(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// bound is one open tree as a rig drives it.
type bound[K, V any] struct {
	tree  Tree[K, V]
	check func() error
	scan  Scan[K, V]
}

// rigSpec is one row of a rig table: how to format a tree and how to recover
// one. valSize is the tree's value field, which the workloads size values by;
// iter is set where the tree has iterators (the FPTree rows).
type rigSpec[K, V any] struct {
	name    string
	leafCap int
	valSize int
	iter    bool
	create  func(*scm.Pool) (bound[K, V], error)
	open    func(*scm.Pool, ...core.RecoveryOptions) (bound[K, V], error)
}

// rig is one tree under test. reopen simulates restart after a crash and
// rebinds tree, check and scan to the recovered instance.
type rig[K, V any] struct {
	rigSpec[K, V]
	bound[K, V]
	pool *scm.Pool
}

func newRig[K, V any](tb testing.TB, s rigSpec[K, V], pool *scm.Pool) *rig[K, V] {
	tb.Helper()
	b, err := s.create(pool)
	if err != nil {
		tb.Fatal(err)
	}
	return &rig[K, V]{s, b, pool}
}

func (s rigSpec[K, V]) mk(tb testing.TB) *rig[K, V] { tb.Helper(); return newRig(tb, s, newTestPool()) }

func (r *rig[K, V]) reopen() error {
	b, err := r.open(r.pool)
	if err == nil {
		r.bound = b
	}
	return err
}

// scanTree is what a rig uses of a tree.
type scanTree[K, V any] interface {
	Tree[K, V]
	CheckInvariants() error
	Scan(from K, fn func(k K, v V) bool)
}

// spec is the row of one tree, formatted with leaves of leafCap slots and a
// valSize value field. The FPTree rows (T is *core.Index) also get the
// iterator passes; the NV-Tree and wBTree rows' open ignores the recovery
// options.
func spec[K, V any, T scanTree[K, V]](name string, leafCap, valSize int,
	create func(*scm.Pool) (T, error), open func(*scm.Pool, ...core.RecoveryOptions) (T, error)) rigSpec[K, V] {
	bind := func(tr T, err error) (bound[K, V], error) {
		if err != nil {
			return bound[K, V]{}, err
		}
		return bound[K, V]{tr, tr.CheckInvariants, func(from K, n int) []KV[K, V] {
			var out []KV[K, V]
			tr.Scan(from, func(k K, v V) bool {
				out = append(out, KV[K, V]{k, v})
				return len(out) < n
			})
			return out
		}}, nil
	}
	_, iter := any(*new(T)).(*core.Index[K, V])
	return rigSpec[K, V]{
		name: name, leafCap: leafCap, valSize: valSize, iter: iter,
		create: func(p *scm.Pool) (bound[K, V], error) { return bind(create(p)) },
		open: func(p *scm.Pool, opts ...core.RecoveryOptions) (bound[K, V], error) {
			return bind(open(p, opts...))
		},
	}
}

// coreSpec is spec for an FPTree formatted with cfg.
func coreSpec[K, V any](name string, cfg core.Config, create func(*scm.Pool, core.Config) (*core.Index[K, V], error),
	open func(*scm.Pool, ...core.RecoveryOptions) (*core.Index[K, V], error)) rigSpec[K, V] {
	return spec(name, cfg.LeafCap, cfg.ValueSize, func(p *scm.Pool) (*core.Index[K, V], error) { return create(p, cfg) }, open)
}

// noOpts adapts a baseline's recovery, which takes no options.
func noOpts[T any](open func(*scm.Pool) (T, error)) func(*scm.Pool, ...core.RecoveryOptions) (T, error) {
	return func(p *scm.Pool, _ ...core.RecoveryOptions) (T, error) { return open(p) }
}

// wbVarTree packs the harness's 8-byte values into the wBTree var tree's
// uint64 payload (same trick the bench adapters use).
type wbVarTree struct{ *wbtree.VarTree }

func (w wbVarTree) Insert(k, v []byte) error {
	return w.VarTree.Insert(k, binary.LittleEndian.Uint64(v))
}

func (w wbVarTree) Find(k []byte) ([]byte, bool) {
	v, ok := w.VarTree.Find(k)
	if !ok {
		return nil, false
	}
	return pack8(v), true
}

func (w wbVarTree) Update(k, v []byte) (bool, error) {
	return w.VarTree.Update(k, binary.LittleEndian.Uint64(v))
}

func (w wbVarTree) Scan(from []byte, fn func(k, v []byte) bool) {
	w.VarTree.Scan(from, func(k []byte, v uint64) bool { return fn(k, pack8(v)) })
}

// Small fanouts everywhere: splits, merges and root growth/collapse all
// happen within a few dozen keys, so the enumerations stay fast while still
// covering every structural path.

func fixedRigs() []rigSpec[uint64, uint64] {
	c := core.Config{LeafCap: 8, InnerFanout: 4}
	fp, pt := c, c
	fp.GroupSize = 4
	pt.Variant = core.VariantPTree
	return []rigSpec[uint64, uint64]{
		coreSpec("fptree", fp, core.Create, core.Open),
		coreSpec("fptreec", c, core.CCreate, core.COpen),
		coreSpec("ptree", pt, core.Create, core.Open),
		spec[uint64, uint64]("nvtree", 8, 0,
			func(p *scm.Pool) (*nvtree.Tree, error) { return nvtree.New(p, nvtree.Config{LeafCap: 8, InnerCap: 4}) },
			noOpts(func(p *scm.Pool) (*nvtree.Tree, error) { return nvtree.Open(p) })),
		spec[uint64, uint64]("wbtree", 4, 0,
			func(p *scm.Pool) (*wbtree.Tree, error) { return wbtree.New(p, wbtree.Config{InnerCap: 4, LeafCap: 4}) },
			noOpts(wbtree.Open)),
	}
}

func varRigs() []rigSpec[[]byte, []byte] {
	c := core.Config{LeafCap: 8, InnerFanout: 4, ValueSize: varValLen}
	fp, pt, kv := c, c, c
	fp.GroupSize = 4
	pt.Variant = core.VariantPTree
	kv.ValueSize = kvValSize
	return []rigSpec[[]byte, []byte]{
		coreSpec("fptree", fp, core.CreateVar, core.OpenVar),
		coreSpec("fptreec", c, core.CCreateVar, core.COpenVar),
		coreSpec("fptreec-kv", kv, core.CCreateVar, core.COpenVar),
		coreSpec("ptree", pt, core.CreateVar, core.OpenVar),
		spec[[]byte, []byte]("nvtree", 8, varValLen,
			func(p *scm.Pool) (*nvtree.VarTree, error) {
				return nvtree.NewVar(p, nvtree.Config{LeafCap: 8, InnerCap: 4, ValueSize: varValLen})
			},
			noOpts(func(p *scm.Pool) (*nvtree.VarTree, error) { return nvtree.OpenVar(p) })),
		spec[[]byte, []byte]("wbtree", 4, varValLen,
			func(p *scm.Pool) (wbVarTree, error) {
				tr, err := wbtree.NewVar(p, wbtree.Config{InnerCap: 4, LeafCap: 4})
				return wbVarTree{tr}, err
			},
			noOpts(func(p *scm.Pool) (wbVarTree, error) { tr, err := wbtree.OpenVar(p); return wbVarTree{tr}, err })),
	}
}

// rigNamed returns the row of rigs called name.
func rigNamed[K, V any](rigs []rigSpec[K, V], name string) rigSpec[K, V] {
	for _, s := range rigs {
		if s.name == name {
			return s
		}
	}
	panic("no rig " + name)
}
