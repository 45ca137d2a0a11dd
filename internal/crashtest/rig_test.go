package crashtest

// Rigs couple each persistent tree with its recovery, invariant-check and
// scan hooks so the enumeration and differential drivers can treat all four
// trees (FPTree fixed/var, PTree, NV-Tree, wBTree) uniformly. Test-only:
// the crashtest package itself depends only on scm and htm; these internal
// test files may import the tree packages freely (none of them import
// crashtest outside their own tests).

import (
	"encoding/binary"
	"fmt"
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

// fixedRig is one fixed-size-key tree under test. reopen simulates restart
// after a crash and rebinds tree/check/scan to the recovered instance.
type fixedRig struct {
	name    string
	leafCap int
	pool    *scm.Pool
	tree    Fixed
	reopen  func() error
	check   func() error
	scan    FixedScan
}

// varRig is the variable-size-key counterpart. valSize is the width of the
// tree's value field, which the workloads size their values by.
type varRig struct {
	name    string
	leafCap int
	valSize int
	pool    *scm.Pool
	tree    Var
	reopen  func() error
	check   func() error
	scan    VarScan
}

// Small fanouts everywhere: splits, merges and root growth/collapse all
// happen within a few dozen keys, so the enumerations stay fast while still
// covering every structural path.

func fptreeFixedRig(tb testing.TB, variant core.Variant) *fixedRig {
	tb.Helper()
	cfg := core.Config{Variant: variant, LeafCap: 8, InnerFanout: 4}
	if variant == core.VariantFPTree {
		cfg.GroupSize = 4
	}
	name := "fptree"
	if variant == core.VariantPTree {
		name = "ptree"
	}
	rig := &fixedRig{name: name, leafCap: cfg.LeafCap, pool: newTestPool()}
	set := func(tr *core.Tree) {
		rig.tree = tr
		rig.check = tr.CheckInvariants
		rig.scan = func(from uint64, n int) []FixedKV {
			kvs := tr.ScanN(from, n)
			out := make([]FixedKV, len(kvs))
			for i, kv := range kvs {
				out[i] = FixedKV{kv.Key, kv.Value}
			}
			return out
		}
	}
	tr, err := core.Create(rig.pool, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	set(tr)
	rig.reopen = func() error {
		tr, err := core.Open(rig.pool)
		if err != nil {
			return err
		}
		set(tr)
		return nil
	}
	return rig
}

func nvtreeFixedRig(tb testing.TB) *fixedRig {
	tb.Helper()
	rig := &fixedRig{name: "nvtree", leafCap: 8, pool: newTestPool()}
	set := func(tr *nvtree.Tree) {
		rig.tree = tr
		rig.check = tr.CheckInvariants
		rig.scan = func(from uint64, n int) []FixedKV {
			var out []FixedKV
			tr.Scan(from, func(k, v uint64) bool {
				out = append(out, FixedKV{k, v})
				return len(out) < n
			})
			return out
		}
	}
	tr, err := nvtree.New(rig.pool, nvtree.Config{LeafCap: 8, InnerCap: 4})
	if err != nil {
		tb.Fatal(err)
	}
	set(tr)
	rig.reopen = func() error {
		tr, err := nvtree.Open(rig.pool, 4)
		if err != nil {
			return err
		}
		set(tr)
		return nil
	}
	return rig
}

func wbtreeFixedRig(tb testing.TB) *fixedRig {
	tb.Helper()
	rig := &fixedRig{name: "wbtree", leafCap: 4, pool: newTestPool()}
	set := func(tr *wbtree.Tree) {
		rig.tree = tr
		rig.check = tr.CheckInvariants
		rig.scan = func(from uint64, n int) []FixedKV {
			var out []FixedKV
			tr.Scan(from, func(k, v uint64) bool {
				out = append(out, FixedKV{k, v})
				return len(out) < n
			})
			return out
		}
	}
	tr, err := wbtree.New(rig.pool, wbtree.Config{InnerCap: 4, LeafCap: 4})
	if err != nil {
		tb.Fatal(err)
	}
	set(tr)
	rig.reopen = func() error {
		tr, err := wbtree.Open(rig.pool)
		if err != nil {
			return err
		}
		set(tr)
		return nil
	}
	return rig
}

func fixedRigs() []struct {
	name string
	mk   func(testing.TB) *fixedRig
} {
	return []struct {
		name string
		mk   func(testing.TB) *fixedRig
	}{
		{"fptree", func(tb testing.TB) *fixedRig { return fptreeFixedRig(tb, core.VariantFPTree) }},
		{"ptree", func(tb testing.TB) *fixedRig { return fptreeFixedRig(tb, core.VariantPTree) }},
		{"nvtree", func(tb testing.TB) *fixedRig { return nvtreeFixedRig(tb) }},
		{"wbtree", func(tb testing.TB) *fixedRig { return wbtreeFixedRig(tb) }},
	}
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

func pack8(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// coreVarTree is what the rigs use of core.VarTree and core.CVarTree: one
// engine and one key codec under the single-threaded and the concurrent
// controller.
type coreVarTree interface {
	Var
	CheckInvariants() error
	ScanN(from []byte, n int) []core.VarKV
}

func fptreeVarRig(tb testing.TB, variant core.Variant, concurrent bool, valSize int) *varRig {
	tb.Helper()
	cfg := core.Config{Variant: variant, LeafCap: 8, InnerFanout: 4, ValueSize: valSize}
	create := func(p *scm.Pool) (coreVarTree, error) { return core.CreateVar(p, cfg) }
	open := func(p *scm.Pool) (coreVarTree, error) { return core.OpenVar(p) }
	name := "fptree-var"
	switch {
	case concurrent:
		name = "fptree-cvar"
		create = func(p *scm.Pool) (coreVarTree, error) { return core.CCreateVar(p, cfg) }
		open = func(p *scm.Pool) (coreVarTree, error) { return core.COpenVar(p) }
	case variant == core.VariantPTree:
		name = "ptree-var"
	default:
		cfg.GroupSize = 4
	}
	if valSize != varValLen {
		name = fmt.Sprintf("%s-val%d", name, valSize)
	}
	rig := &varRig{name: name, leafCap: cfg.LeafCap, valSize: valSize, pool: newTestPool()}
	set := func(tr coreVarTree) {
		rig.tree = tr
		rig.check = tr.CheckInvariants
		rig.scan = func(from []byte, n int) []VarKV {
			kvs := tr.ScanN(from, n)
			out := make([]VarKV, len(kvs))
			for i, kv := range kvs {
				out[i] = VarKV{kv.Key, kv.Value}
			}
			return out
		}
	}
	tr, err := create(rig.pool)
	if err != nil {
		tb.Fatal(err)
	}
	set(tr)
	rig.reopen = func() error {
		tr, err := open(rig.pool)
		if err != nil {
			return err
		}
		set(tr)
		return nil
	}
	return rig
}

func nvtreeVarRig(tb testing.TB) *varRig {
	tb.Helper()
	rig := &varRig{name: "nvtree-var", leafCap: 8, valSize: varValLen, pool: newTestPool()}
	set := func(tr *nvtree.VarTree) {
		rig.tree = tr
		rig.check = tr.CheckInvariants
		rig.scan = func(from []byte, n int) []VarKV {
			var out []VarKV
			tr.Scan(from, func(k, v []byte) bool {
				out = append(out, VarKV{k, v})
				return len(out) < n
			})
			return out
		}
	}
	tr, err := nvtree.NewVar(rig.pool, nvtree.Config{LeafCap: 8, InnerCap: 4, ValueSize: varValLen})
	if err != nil {
		tb.Fatal(err)
	}
	set(tr)
	rig.reopen = func() error {
		tr, err := nvtree.OpenVar(rig.pool, 4)
		if err != nil {
			return err
		}
		set(tr)
		return nil
	}
	return rig
}

// wbVarAdapter packs the harness's 8-byte values into the wBTree var tree's
// uint64 payload (same trick the bench adapters use).
type wbVarAdapter struct{ t *wbtree.VarTree }

func (w wbVarAdapter) Insert(k, v []byte) error {
	return w.t.Insert(k, binary.LittleEndian.Uint64(v))
}

func (w wbVarAdapter) Find(k []byte) ([]byte, bool) {
	v, ok := w.t.Find(k)
	if !ok {
		return nil, false
	}
	return pack8(v), true
}

func (w wbVarAdapter) Update(k, v []byte) (bool, error) {
	return w.t.Update(k, binary.LittleEndian.Uint64(v))
}

func (w wbVarAdapter) Delete(k []byte) (bool, error) { return w.t.Delete(k) }

func wbtreeVarRig(tb testing.TB) *varRig {
	tb.Helper()
	rig := &varRig{name: "wbtree-var", leafCap: 4, valSize: varValLen, pool: newTestPool()}
	set := func(tr *wbtree.VarTree) {
		rig.tree = wbVarAdapter{tr}
		rig.check = tr.CheckInvariants
		rig.scan = func(from []byte, n int) []VarKV {
			var out []VarKV
			tr.Scan(from, func(k []byte, v uint64) bool {
				out = append(out, VarKV{k, pack8(v)})
				return len(out) < n
			})
			return out
		}
	}
	tr, err := wbtree.NewVar(rig.pool, wbtree.Config{InnerCap: 4, LeafCap: 4})
	if err != nil {
		tb.Fatal(err)
	}
	set(tr)
	rig.reopen = func() error {
		tr, err := wbtree.OpenVar(rig.pool)
		if err != nil {
			return err
		}
		set(tr)
		return nil
	}
	return rig
}

func varRigs() []struct {
	name string
	mk   func(testing.TB) *varRig
} {
	return []struct {
		name string
		mk   func(testing.TB) *varRig
	}{
		{"fptree", func(tb testing.TB) *varRig { return fptreeVarRig(tb, core.VariantFPTree, false, varValLen) }},
		{"fptreec", func(tb testing.TB) *varRig { return fptreeVarRig(tb, core.VariantFPTree, true, varValLen) }},
		{"fptreec-kv", func(tb testing.TB) *varRig { return fptreeVarRig(tb, core.VariantFPTree, true, kvValSize) }},
		{"ptree", func(tb testing.TB) *varRig { return fptreeVarRig(tb, core.VariantPTree, false, varValLen) }},
		{"nvtree", func(tb testing.TB) *varRig { return nvtreeVarRig(tb) }},
		{"wbtree", func(tb testing.TB) *varRig { return wbtreeVarRig(tb) }},
	}
}
