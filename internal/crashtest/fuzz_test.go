package crashtest

// Native fuzz targets funnelling into the differential checker. The input
// byte stream decodes into (op, key, value) triples — including a
// crash-and-recover opcode — applied to the FPTree, its concurrent form and
// the PTree (fixed keys), or to var-key FPTrees (8-byte values, and values of
// mixed lengths in kvserver's 122-byte field) and their concurrent forms,
// each against its own map oracle. Seed corpora live in
// testdata/fuzz/. CI smoke-runs each target briefly; run
// `go test -fuzz FuzzTreeOpsFixed ./internal/crashtest` to dig.

import (
	"bytes"
	"testing"

	"fptree/internal/core"
	"fptree/internal/scm"
)

const fuzzPoolBytes = 4 << 20

// fuzzOp is one decoded input triple: decodeFuzz turns the raw fuzz input
// into a trace over a deliberately tiny key space (collisions make updates,
// duplicate inserts and deletes land).
type fuzzOp struct {
	kind  OpKind
	crash bool
	k, v  uint64
}

func decodeFuzz(data []byte) []fuzzOp {
	var ops []fuzzOp
	for len(data) >= 3 {
		kind, kb, vb := data[0], data[1], data[2]
		data = data[3:]
		op := fuzzOp{k: uint64(kb%32) + 1, v: uint64(vb)}
		switch kind % 6 {
		case 0, 1:
			op.kind = OpInsert
		case 2:
			op.kind = OpUpdate
		case 3:
			op.kind = OpDelete
		case 4:
			op.kind = OpFind
		case 5:
			op.crash = true
		}
		ops = append(ops, op)
	}
	return ops
}

// fuzzSeeds are also checked in under testdata/fuzz/ so the corpora survive
// outside the binary.
func fuzzSeeds(f *testing.F) {
	seq := make([]byte, 0, 3*16)
	for k := byte(1); k <= 16; k++ {
		seq = append(seq, 0, k, k)
	}
	f.Add(seq)
	f.Add([]byte("\x00\x01\x01\x00\x02\x02\x05\x00\x00\x02\x01\x63\x03\x02\x00\x04\x01\x00\x05\x00\x00\x00\x09\x09"))
	churn := make([]byte, 0, 6*20)
	for k := byte(1); k <= 20; k++ {
		churn = append(churn, 0, k, 2*k)
	}
	for k := byte(1); k <= 20; k++ {
		churn = append(churn, 3, k, 0)
	}
	f.Add(churn)
}

// fuzzTrees replays the decoded input against a fresh tree of every spec,
// each checked against its own model; the crash opcode crashes and reopens
// it. value turns the op's value byte into a value for the tree's field.
// Afterwards every tree's full contents, ordered scan included, must match
// its model.
func fuzzTrees[K, V any](t *testing.T, ks Keys[K, V], specs []rigSpec[K, V], data []byte, value func(b uint64, valSize int) V) {
	ops := decodeFuzz(data)
	for _, s := range specs {
		r := newRig(t, s, scm.NewPool(fuzzPoolBytes, scm.LatencyConfig{CacheBytes: -1}))
		o := NewOracle(ks)
		var trace []Op[K, V]
		for _, op := range ops {
			if op.crash {
				r.pool.Crash()
				if err := r.reopen(); err != nil {
					t.Fatalf("%s: recovery: %v", s.name, err)
				}
				if err := r.check(); err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				continue
			}
			trace = append(trace, Op[K, V]{Kind: op.kind, K: ks.key(op.k), V: value(op.v, s.valSize)})
			if err := o.Replay(r.tree, r.scan, trace[len(trace)-1:]); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
		}
		if err := o.Diff(r.tree, ks.probe(trace), r.scan); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if err := r.check(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
}

func FuzzTreeOpsFixed(f *testing.F) {
	fuzzSeeds(f)
	c := core.Config{LeafCap: 8, InnerFanout: 4}
	pt, g := c, c
	pt.Variant = core.VariantPTree
	g.GroupSize = 4
	specs := []rigSpec[uint64, uint64]{
		coreSpec("fptree", c, core.Create, core.Open),
		coreSpec("fptreec", c, core.CCreate, core.COpen),
		coreSpec("fptreec-group", g, core.CCreate, core.COpen),
		coreSpec("ptree", pt, core.Create, core.Open),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzTrees(t, Fixed, specs, data, func(b uint64, _ int) uint64 { return b })
	})
}

func FuzzTreeOpsVar(f *testing.F) {
	fuzzSeeds(f)
	c := core.Config{LeafCap: 8, InnerFanout: 4, ValueSize: varValLen}
	kv, g := c, c
	kv.ValueSize = kvValSize
	g.GroupSize = 4
	specs := []rigSpec[[]byte, []byte]{
		coreSpec("fptree", c, core.CreateVar, core.OpenVar),
		coreSpec("fptree-kv", kv, core.CreateVar, core.OpenVar),
		coreSpec("fptreec", c, core.CCreateVar, core.COpenVar),
		coreSpec("fptreec-group", g, core.CCreateVar, core.COpenVar),
		coreSpec("fptreec-kv", kv, core.CCreateVar, core.COpenVar),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The value byte fills the field and, in the wide one, also selects
		// the length the value is stored at (VarValue).
		fuzzTrees(t, Var, specs, data, func(b uint64, valSize int) []byte {
			return VarValue(bytes.Repeat([]byte{byte(b)}, valSize))
		})
	})
}
