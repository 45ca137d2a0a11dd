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
// its 2-byte frame; the 152-byte slot that straddles lines whatever its
// start). The FPTree rigs built at this width are handed values of mixed
// lengths (VarValue).
const kvValSize = 122

func pack8(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// bound is one open tree as a rig drives it.
type bound[K, V any] struct {
	tree  Tree[K, V]
	check func() error
	scan  Scan[K, V]
}

// rigSpec is one row of a rig table: how to format a tree and how to recover
// one. valSize is the tree's value field, which the workloads size values by.
type rigSpec[K, V any] struct {
	name    string
	leafCap int
	valSize int
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

// coreTree is what a rig uses of the four core facades.
type coreTree[K, V, P any] interface {
	Tree[K, V]
	CheckInvariants() error
	ScanN(from K, n int) []P
}

// coreSpec is the row of one core facade under cfg; pair converts the
// facade's pair type.
func coreSpec[K, V, P any, T coreTree[K, V, P]](name string, cfg core.Config,
	create func(*scm.Pool, core.Config) (T, error), open func(*scm.Pool, ...core.RecoveryOptions) (T, error),
	pair func(P) KV[K, V]) rigSpec[K, V] {
	bind := func(tr T, err error) (bound[K, V], error) {
		if err != nil {
			return bound[K, V]{}, err
		}
		return bound[K, V]{tr, tr.CheckInvariants, func(from K, n int) []KV[K, V] {
			kvs := tr.ScanN(from, n)
			out := make([]KV[K, V], len(kvs))
			for i, kv := range kvs {
				out[i] = pair(kv)
			}
			return out
		}}, nil
	}
	return rigSpec[K, V]{
		name: name, leafCap: cfg.LeafCap, valSize: cfg.ValueSize,
		create: func(p *scm.Pool) (bound[K, V], error) { return bind(create(p, cfg)) },
		open: func(p *scm.Pool, opts ...core.RecoveryOptions) (bound[K, V], error) {
			return bind(open(p, opts...))
		},
	}
}

func fixedPair(kv core.KV) KV[uint64, uint64]  { return KV[uint64, uint64]{kv.Key, kv.Value} }
func varPair(kv core.VarKV) KV[[]byte, []byte] { return KV[[]byte, []byte]{kv.Key, kv.Value} }

// scanTree is what a rig uses of the NV-Tree and wBTree facades.
type scanTree[K, V any] interface {
	Tree[K, V]
	CheckInvariants() error
	Scan(from K, fn func(k K, v V) bool)
}

// scanSpec is the row of an NV-Tree or wBTree facade (their recovery takes no
// options).
func scanSpec[K, V any, T scanTree[K, V]](name string, leafCap, valSize int, create, open func(*scm.Pool) (T, error)) rigSpec[K, V] {
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
	return rigSpec[K, V]{
		name: name, leafCap: leafCap, valSize: valSize,
		create: func(p *scm.Pool) (bound[K, V], error) { return bind(create(p)) },
		open:   func(p *scm.Pool, _ ...core.RecoveryOptions) (bound[K, V], error) { return bind(open(p)) },
	}
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
		coreSpec("fptree", fp, core.Create, core.Open, fixedPair),
		coreSpec("fptreec", c, core.CCreate, core.COpen, fixedPair),
		coreSpec("ptree", pt, core.Create, core.Open, fixedPair),
		scanSpec[uint64, uint64]("nvtree", 8, 0,
			func(p *scm.Pool) (*nvtree.Tree, error) { return nvtree.New(p, nvtree.Config{LeafCap: 8, InnerCap: 4}) },
			func(p *scm.Pool) (*nvtree.Tree, error) { return nvtree.Open(p, 4) }),
		scanSpec[uint64, uint64]("wbtree", 4, 0,
			func(p *scm.Pool) (*wbtree.Tree, error) { return wbtree.New(p, wbtree.Config{InnerCap: 4, LeafCap: 4}) },
			wbtree.Open),
	}
}

func varRigs() []rigSpec[[]byte, []byte] {
	c := core.Config{LeafCap: 8, InnerFanout: 4, ValueSize: varValLen}
	fp, pt, kv := c, c, c
	fp.GroupSize = 4
	pt.Variant = core.VariantPTree
	kv.ValueSize = kvValSize
	return []rigSpec[[]byte, []byte]{
		coreSpec("fptree", fp, core.CreateVar, core.OpenVar, varPair),
		coreSpec("fptreec", c, core.CCreateVar, core.COpenVar, varPair),
		coreSpec("fptreec-kv", kv, core.CCreateVar, core.COpenVar, varPair),
		coreSpec("ptree", pt, core.CreateVar, core.OpenVar, varPair),
		scanSpec[[]byte, []byte]("nvtree", 8, varValLen,
			func(p *scm.Pool) (*nvtree.VarTree, error) {
				return nvtree.NewVar(p, nvtree.Config{LeafCap: 8, InnerCap: 4, ValueSize: varValLen})
			},
			func(p *scm.Pool) (*nvtree.VarTree, error) { return nvtree.OpenVar(p, 4) }),
		scanSpec[[]byte, []byte]("wbtree", 4, varValLen,
			func(p *scm.Pool) (wbVarTree, error) {
				tr, err := wbtree.NewVar(p, wbtree.Config{InnerCap: 4, LeafCap: 4})
				return wbVarTree{tr}, err
			},
			func(p *scm.Pool) (wbVarTree, error) { tr, err := wbtree.OpenVar(p); return wbVarTree{tr}, err }),
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
