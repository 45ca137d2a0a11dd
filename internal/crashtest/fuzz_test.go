package crashtest

// Native fuzz targets funnelling into the differential checker. The input
// byte stream decodes into (op, key, value) triples — including a
// crash-and-recover opcode — applied in lockstep to the FPTree and PTree
// variants (fixed keys) or to two var-key FPTrees (8-byte values, and values of
// mixed lengths in kvserver's 122-byte field), against the map oracle.
// Seed corpora live in testdata/fuzz/. CI smoke-runs each target briefly;
// run `go test -fuzz FuzzTreeOpsFixed ./internal/crashtest` to dig.

import (
	"bytes"
	"testing"

	"fptree/internal/core"
	"fptree/internal/scm"
)

const fuzzPoolBytes = 4 << 20

// fuzzOps decodes the raw fuzz input into a trace over a deliberately tiny
// key space (collisions make updates, duplicate inserts and deletes land).
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

func FuzzTreeOpsFixed(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		pools := [2]*scm.Pool{}
		trees := [2]*core.Tree{}
		for i, variant := range []core.Variant{core.VariantFPTree, core.VariantPTree} {
			pools[i] = scm.NewPool(fuzzPoolBytes, scm.LatencyConfig{CacheBytes: -1})
			tr, err := core.Create(pools[i], core.Config{Variant: variant, LeafCap: 8, InnerFanout: 4})
			if err != nil {
				t.Fatal(err)
			}
			trees[i] = tr
		}
		// One oracle per tree; both replay the identical trace, so the
		// oracles stay equal and each tree is checked against its own.
		oracles := [2]map[uint64]uint64{{}, {}}
		touched := map[uint64]bool{}
		for _, op := range decodeFuzz(data) {
			if op.crash {
				for i := range trees {
					pools[i].Crash()
					tr, err := core.Open(pools[i])
					if err != nil {
						t.Fatalf("recovery: %v", err)
					}
					if err := tr.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					trees[i] = tr
				}
				continue
			}
			touched[op.k] = true
			for i := range trees {
				if err := ReplayFixed(trees[i], oracles[i], []FixedOp{{Kind: op.kind, K: op.k, V: op.v}}); err != nil {
					t.Fatalf("tree %d: %v", i, err)
				}
			}
		}
		probe := make([]uint64, 0, len(touched))
		for k := range touched {
			probe = append(probe, k)
		}
		for i, tr := range trees {
			scan := func(from uint64, n int) []FixedKV {
				kvs := tr.ScanN(from, n)
				out := make([]FixedKV, len(kvs))
				for j, kv := range kvs {
					out[j] = FixedKV{kv.Key, kv.Value}
				}
				return out
			}
			if err := DiffFixed(tr, oracles[i], probe, scan); err != nil {
				t.Fatalf("tree %d: %v", i, err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("tree %d: %v", i, err)
			}
		}
	})
}

func FuzzTreeOpsVar(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The value byte fills the field and, in the wide one, also selects
		// the length the value is stored at (VarValue).
		for _, valSize := range []int{varValLen, kvValSize} {
			pool := scm.NewPool(fuzzPoolBytes, scm.LatencyConfig{CacheBytes: -1})
			tr, err := core.CreateVar(pool, core.Config{LeafCap: 8, InnerFanout: 4, ValueSize: valSize})
			if err != nil {
				t.Fatal(err)
			}
			var tree Var = tr
			check := tr.CheckInvariants
			oracle := map[string][]byte{}
			touched := map[string]bool{}
			for _, op := range decodeFuzz(data) {
				if op.crash {
					pool.Crash()
					tr, err := core.OpenVar(pool)
					if err != nil {
						t.Fatalf("value field %d: recovery: %v", valSize, err)
					}
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("value field %d: %v", valSize, err)
					}
					tree, check = tr, tr.CheckInvariants
					continue
				}
				k := VarKey(op.k)
				touched[string(k)] = true
				v := VarValue(bytes.Repeat([]byte{byte(op.v)}, valSize))
				if err := ReplayVar(tree, oracle, []VarOp{{Kind: op.kind, K: k, V: v}}); err != nil {
					t.Fatalf("value field %d: %v", valSize, err)
				}
			}
			probe := make([]string, 0, len(touched))
			for k := range touched {
				probe = append(probe, k)
			}
			if err := DiffVar(tree, oracle, probe, nil); err != nil {
				t.Fatalf("value field %d: %v", valSize, err)
			}
			if err := check(); err != nil {
				t.Fatalf("value field %d: %v", valSize, err)
			}
		}
	})
}
