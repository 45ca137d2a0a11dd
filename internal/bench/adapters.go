// Package bench is the reproduction harness for the paper's evaluation
// (Section 6): it wires every tree implementation behind uniform adapters,
// generates the workloads, sweeps SCM latencies and thread counts, and
// prints one paper-shaped table per figure.
package bench

import (
	"fmt"
	"time"

	"fptree/internal/core"
	"fptree/internal/nvtree"
	"fptree/internal/scm"
	"fptree/internal/stx"
	"fptree/internal/wbtree"
)

// Tree is the uniform adapter over every tree under test: the four base
// operations of the paper's Figure 7, for one key and value representation.
type Tree[K, V any] interface {
	Insert(k K, v V) error
	Find(k K) (V, bool)
	Update(k K, v V) (bool, error)
	Delete(k K) (bool, error)
}

// FixedTree is Tree over the 8-byte keys and values of the fixed-key trees;
// VarTree is Tree over the string keys and byte payloads of the var-key ones.
type (
	FixedTree = Tree[uint64, uint64]
	VarTree   = Tree[[]byte, []byte]
)

// Instance couples a tree with its pool and recovery procedure.
type Instance struct {
	Name    string
	Fixed   FixedTree
	Var     VarTree
	Pool    *scm.Pool // nil for the fully transient STXTree
	Recover func() (any, error)
	// DRAMBytes estimates DRAM held by transient parts (Figure 8).
	DRAMBytes func() uint64
}

// LatencyNS returns the scm latency configuration for one of the paper's
// emulated SCM latencies (reads; writes are charged the same, Section 6.1).
func LatencyNS(ns int) scm.LatencyConfig {
	return scm.LatencyConfig{
		Mode:         scm.LatencySpin,
		ReadLatency:  time.Duration(ns) * time.Nanosecond,
		WriteLatency: time.Duration(ns) * time.Nanosecond,
	}
}

// poolMB allocates an arena sized for the experiment.
func poolMB(mb int, lat scm.LatencyConfig) *scm.Pool {
	return scm.NewPool(int64(mb)<<20, lat)
}

// Kind names a tree implementation under test.
type Kind string

// The tree kinds of Table 1.
const (
	KindFPTree  Kind = "FPTree"
	KindPTree   Kind = "PTree"
	KindNVTree  Kind = "NV-Tree"
	KindWBTree  Kind = "wBTree"
	KindSTXTree Kind = "STXTree"
	KindFPTreeC Kind = "FPTreeC"
	KindNVTreeC Kind = "NV-TreeC"
)

// FixedKinds is the paper's single-threaded fixed-key lineup (Figure 7).
var FixedKinds = []Kind{KindFPTree, KindPTree, KindNVTree, KindWBTree, KindSTXTree}

// NewFixed builds a fixed-key tree of the given kind with its Table 1 node
// sizes, on an arena of poolSizeMB with the given latency profile.
func NewFixed(kind Kind, poolSizeMB int, lat scm.LatencyConfig) (*Instance, error) {
	switch kind {
	case KindFPTree:
		pool := poolMB(poolSizeMB, lat)
		t, err := core.Create(pool, core.Config{LeafCap: 56, InnerFanout: 4096, GroupSize: 8})
		if err != nil {
			return nil, err
		}
		inst := &Instance{Name: string(kind), Fixed: t, Pool: pool}
		inst.Recover = func() (any, error) { return core.Open(pool) }
		inst.DRAMBytes = func() uint64 { return t.Memory().DRAMBytes }
		return inst, nil
	case KindPTree:
		pool := poolMB(poolSizeMB, lat)
		t, err := core.Create(pool, core.Config{Variant: core.VariantPTree, LeafCap: 32, InnerFanout: 4096, GroupSize: 0})
		if err != nil {
			return nil, err
		}
		inst := &Instance{Name: string(kind), Fixed: t, Pool: pool}
		inst.Recover = func() (any, error) { return core.Open(pool) }
		inst.DRAMBytes = func() uint64 { return t.Memory().DRAMBytes }
		return inst, nil
	case KindNVTree:
		pool := poolMB(poolSizeMB, lat)
		t, err := nvtree.New(pool, nvtree.Config{LeafCap: 32, InnerCap: 128})
		if err != nil {
			return nil, err
		}
		inst := &Instance{Name: string(kind), Fixed: t, Pool: pool}
		inst.Recover = func() (any, error) { return nvtree.Open(pool) }
		inst.DRAMBytes = t.DRAMBytes
		return inst, nil
	case KindWBTree:
		pool := poolMB(poolSizeMB, lat)
		t, err := wbtree.New(pool, wbtree.Config{InnerCap: 32, LeafCap: 63})
		if err != nil {
			return nil, err
		}
		inst := &Instance{Name: string(kind), Fixed: t, Pool: pool}
		inst.Recover = func() (any, error) { return wbtree.Open(pool) }
		inst.DRAMBytes = func() uint64 { return 0 } // SCM-only
		return inst, nil
	case KindSTXTree:
		t := stx.NewUint64()
		inst := &Instance{Name: string(kind), Fixed: stxFixed{t}}
		inst.Recover = func() (any, error) { return nil, fmt.Errorf("transient tree: full rebuild required") }
		inst.DRAMBytes = t.MemoryBytes
		return inst, nil
	}
	return nil, fmt.Errorf("bench: unknown fixed kind %q", kind)
}

// NewVar builds a variable-size-key tree of the given kind (Table 1 "Var"
// rows) with the given inline value size.
func NewVar(kind Kind, poolSizeMB int, valueSize int, lat scm.LatencyConfig) (*Instance, error) {
	switch kind {
	case KindFPTree:
		pool := poolMB(poolSizeMB, lat)
		t, err := core.CreateVar(pool, core.Config{LeafCap: 56, InnerFanout: 2048, GroupSize: 8, ValueSize: valueSize})
		if err != nil {
			return nil, err
		}
		inst := &Instance{Name: "FPTreeVar", Var: t, Pool: pool}
		inst.Recover = func() (any, error) { return core.OpenVar(pool) }
		inst.DRAMBytes = func() uint64 { return t.Memory().DRAMBytes }
		return inst, nil
	case KindPTree:
		pool := poolMB(poolSizeMB, lat)
		t, err := core.CreateVar(pool, core.Config{Variant: core.VariantPTree, LeafCap: 32, InnerFanout: 256, GroupSize: 0, ValueSize: valueSize})
		if err != nil {
			return nil, err
		}
		inst := &Instance{Name: "PTreeVar", Var: t, Pool: pool}
		inst.Recover = func() (any, error) { return core.OpenVar(pool) }
		inst.DRAMBytes = func() uint64 { return t.Memory().DRAMBytes }
		return inst, nil
	case KindNVTree:
		pool := poolMB(poolSizeMB, lat)
		t, err := nvtree.NewVar(pool, nvtree.Config{LeafCap: 32, InnerCap: 128, ValueSize: valueSize})
		if err != nil {
			return nil, err
		}
		inst := &Instance{Name: "NV-TreeVar", Var: t, Pool: pool}
		inst.Recover = func() (any, error) { return nvtree.OpenVar(pool) }
		inst.DRAMBytes = t.DRAMBytes
		return inst, nil
	case KindWBTree:
		pool := poolMB(poolSizeMB, lat)
		t, err := wbtree.NewVar(pool, wbtree.Config{InnerCap: 32, LeafCap: 63})
		if err != nil {
			return nil, err
		}
		inst := &Instance{Name: "wBTreeVar", Var: wbVar{t}, Pool: pool}
		inst.Recover = func() (any, error) { return wbtree.OpenVar(pool) }
		inst.DRAMBytes = func() uint64 { return 0 }
		return inst, nil
	case KindSTXTree:
		t := stx.NewString()
		inst := &Instance{Name: "STXTreeVar", Var: stxVar{t}}
		inst.Recover = func() (any, error) { return nil, fmt.Errorf("transient tree") }
		inst.DRAMBytes = t.MemoryBytes
		return inst, nil
	}
	return nil, fmt.Errorf("bench: unknown var kind %q", kind)
}

// NewConcurrentFixed builds a concurrent fixed-key tree (Figures 9-11).
func NewConcurrentFixed(kind Kind, poolSizeMB int, lat scm.LatencyConfig) (string, FixedTree, error) {
	switch kind {
	case KindFPTreeC:
		t, err := core.CCreate(poolMB(poolSizeMB, lat), core.Config{LeafCap: 56, InnerFanout: 128}) // Table 1: FPTreeC 128/64
		return "FPTreeC", t, err
	case KindNVTreeC:
		t, err := nvtree.CNew(poolMB(poolSizeMB, lat), nvtree.Config{LeafCap: 32, InnerCap: 128})
		return "NV-TreeC", t, err
	}
	return "", nil, fmt.Errorf("bench: unknown concurrent kind %q", kind)
}

// NewConcurrentVar builds a concurrent variable-size-key tree.
func NewConcurrentVar(kind Kind, poolSizeMB int, valueSize int, lat scm.LatencyConfig) (string, VarTree, error) {
	switch kind {
	case KindFPTreeC:
		t, err := core.CCreateVar(poolMB(poolSizeMB, lat), core.Config{LeafCap: 56, InnerFanout: 64, ValueSize: valueSize})
		return "FPTreeCVar", t, err
	case KindNVTreeC:
		t, err := nvtree.CNewVar(poolMB(poolSizeMB, lat), nvtree.Config{LeafCap: 32, InnerCap: 128, ValueSize: valueSize})
		return "NV-TreeCVar", t, err
	}
	return "", nil, fmt.Errorf("bench: unknown concurrent kind %q", kind)
}

// --- thin adapters ------------------------------------------------------------

type stxFixed struct{ t *stx.Tree[uint64, uint64] }

func (a stxFixed) Insert(k, v uint64) error         { a.t.Insert(k, v); return nil }
func (a stxFixed) Find(k uint64) (uint64, bool)     { return a.t.Find(k) }
func (a stxFixed) Update(k, v uint64) (bool, error) { return a.t.Update(k, v), nil }
func (a stxFixed) Delete(k uint64) (bool, error)    { return a.t.Delete(k), nil }

type stxVar struct{ t *stx.Tree[string, []byte] }

func (a stxVar) Insert(k, v []byte) error         { a.t.Insert(string(k), v); return nil }
func (a stxVar) Find(k []byte) ([]byte, bool)     { return a.t.Find(string(k)) }
func (a stxVar) Update(k, v []byte) (bool, error) { return a.t.Update(string(k), v), nil }
func (a stxVar) Delete(k []byte) (bool, error)    { return a.t.Delete(string(k)), nil }

type wbVar struct{ t *wbtree.VarTree }

func u64le(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

func (a wbVar) Insert(k, v []byte) error {
	var val uint64
	for i := 0; i < 8 && i < len(v); i++ {
		val |= uint64(v[i]) << (8 * i)
	}
	return a.t.Insert(k, val)
}
func (a wbVar) Find(k []byte) ([]byte, bool) {
	v, ok := a.t.Find(k)
	if !ok {
		return nil, false
	}
	return u64le(v), true
}
func (a wbVar) Update(k, v []byte) (bool, error) {
	var val uint64
	for i := 0; i < 8 && i < len(v); i++ {
		val |= uint64(v[i]) << (8 * i)
	}
	return a.t.Update(k, val)
}
func (a wbVar) Delete(k []byte) (bool, error) { return a.t.Delete(k) }
