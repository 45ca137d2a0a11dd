package crashtest

// Exhaustive crash-point enumeration over all four persistent trees: every
// mutating operation of a mixed workload is crashed at each of its Persist
// (and separately, fence) primitives, recovery runs, invariants are checked
// and the full contents are diffed against the map oracle. The workload
// includes a sequential fill (leaf splits, root growth), a random trace
// (updates, duplicate inserts, deletes) and a full delete sweep (merges,
// chain pruning, root collapse), so the grid covers insert, delete, split
// and the recovery paths behind each.

import (
	"bytes"
	"fmt"
	"testing"
)

// fixedWorkload builds the canonical enumeration trace: sequential fill,
// random mixed trace, full delete sweep.
func fixedWorkload(seed int64, inserts, trace int, keySpace uint64) []FixedOp {
	ops := make([]FixedOp, 0, inserts+trace+int(keySpace))
	for k := uint64(1); k <= uint64(inserts); k++ {
		ops = append(ops, FixedOp{Kind: OpInsert, K: k, V: k * 7})
	}
	ops = append(ops, GenFixed(seed, trace, keySpace)...)
	for k := uint64(1); k <= keySpace; k++ {
		ops = append(ops, FixedOp{Kind: OpDelete, K: k})
	}
	return ops
}

// varWorkload is fixedWorkload over VarKey's keys, for a tree whose value
// field is valSize bytes wide: 8-byte values at the harness's width, VarValue's
// mix of lengths in a wider one.
func varWorkload(seed int64, inserts, trace int, keySpace uint64, valSize int) []VarOp {
	ops := make([]VarOp, 0, inserts+trace+int(keySpace))
	for k := uint64(1); k <= uint64(inserts); k++ {
		v := bytes.Repeat(pack8(k*7), (valSize+7)/8)[:valSize]
		ops = append(ops, VarOp{Kind: OpInsert, K: VarKey(k), V: VarValue(v)})
	}
	ops = append(ops, GenVar(seed, trace, keySpace, valSize)...)
	for k := uint64(1); k <= keySpace; k++ {
		ops = append(ops, VarOp{Kind: OpDelete, K: VarKey(k)})
	}
	return ops
}

// syncFixed reconciles the oracle with the tree for the one operation that
// was in flight when the crash hit: its effects are either fully present
// (the commit point persisted before the crash) or fully absent — anything
// in between is a consistency bug the subsequent diff reports.
func syncFixed(t Fixed, oracle map[uint64]uint64, op FixedOp) {
	v, ok := t.Find(op.K)
	switch op.Kind {
	case OpInsert, OpUpdate:
		if ok && v == op.V {
			oracle[op.K] = op.V
		}
	case OpDelete:
		if !ok {
			delete(oracle, op.K)
		}
	}
}

func syncVar(t Var, oracle map[string][]byte, op VarOp) {
	v, ok := t.Find(op.K)
	switch op.Kind {
	case OpInsert, OpUpdate:
		if ok && string(v) == string(op.V) {
			oracle[string(op.K)] = op.V
		}
	case OpDelete:
		if !ok {
			delete(oracle, string(op.K))
		}
	}
}

// enumerateFixed walks the workload one operation at a time and runs a full
// crash-point enumeration around each mutating op, so no persist point is
// ever skipped (a workload-level enumeration would advance more than one
// primitive per iteration). opts must enable exactly one crash kind: after
// one kind's enumeration completes, the op has committed, and re-running it
// for a second kind would exercise a different (idempotent-update) path.
func enumerateFixed(t *testing.T, rig *fixedRig, ops []FixedOp, opts Options) int {
	t.Helper()
	if opts.Persists == opts.Fences {
		t.Fatal("enumerateFixed needs exactly one crash kind per pass")
	}
	probe := probeUniverse(ops)
	oracle := map[uint64]uint64{}
	total := 0
	for i := range ops {
		op := ops[i]
		if op.Kind == OpFind || op.Kind == OpScan {
			if err := ReplayFixed(rig.tree, oracle, ops[i:i+1]); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			continue
		}
		total += Enumerate(t, rig.pool, opts,
			func() error { return ReplayFixed(rig.tree, oracle, ops[i:i+1]) },
			func(pt Point) error {
				if err := rig.reopen(); err != nil {
					return fmt.Errorf("op %d (%v %d): recovery: %v", i, op.Kind, op.K, err)
				}
				if err := rig.check(); err != nil {
					return fmt.Errorf("op %d (%v %d): invariants: %v", i, op.Kind, op.K, err)
				}
				syncFixed(rig.tree, oracle, op)
				if err := DiffFixed(rig.tree, oracle, probe, rig.scan); err != nil {
					return fmt.Errorf("op %d (%v %d): %v", i, op.Kind, op.K, err)
				}
				return nil
			})
	}
	return total
}

func enumerateVar(t *testing.T, rig *varRig, ops []VarOp, opts Options) int {
	t.Helper()
	if opts.Persists == opts.Fences {
		t.Fatal("enumerateVar needs exactly one crash kind per pass")
	}
	probe := probeUniverseVar(ops)
	oracle := map[string][]byte{}
	total := 0
	for i := range ops {
		op := ops[i]
		if op.Kind == OpFind || op.Kind == OpScan {
			if err := ReplayVar(rig.tree, oracle, ops[i:i+1]); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			continue
		}
		total += Enumerate(t, rig.pool, opts,
			func() error { return ReplayVar(rig.tree, oracle, ops[i:i+1]) },
			func(pt Point) error {
				if err := rig.reopen(); err != nil {
					return fmt.Errorf("op %d (%v %q): recovery: %v", i, op.Kind, op.K, err)
				}
				if err := rig.check(); err != nil {
					return fmt.Errorf("op %d (%v %q): invariants: %v", i, op.Kind, op.K, err)
				}
				syncVar(rig.tree, oracle, op)
				if err := DiffVar(rig.tree, oracle, probe, rig.scan); err != nil {
					return fmt.Errorf("op %d (%v %q): %v", i, op.Kind, op.K, err)
				}
				return nil
			})
	}
	return total
}

// enumPasses is the crash-kind × torn grid each tree runs through. The torn
// pass runs once per base seed: which words of a dirty line a torn crash
// keeps is a draw per crash point, and one base seed left the torn
// afterUpdate bug (core.TestTornAfterUpdateKeepsLiveKey) undrawn at every
// point. tornSeed mixes the base into each point's seed, so the bases are
// decorrelated, and a failing Point still prints the derived seed it replays
// from.
var enumPasses = []struct {
	name string
	opts Options
}{
	{"persist", Options{Persists: true}},
	{"fence", Options{Fences: true}},
	{"torn-42", Options{Persists: true, Torn: true, Seed: 42}},
	{"torn-977", Options{Persists: true, Torn: true, Seed: 977}},
	{"torn-31337", Options{Persists: true, Torn: true, Seed: 31337}},
	{"torn-5eed1", Options{Persists: true, Torn: true, Seed: 0x5EED1}},
}

func TestCrashEnumerationFixed(t *testing.T) {
	for _, tc := range fixedRigs() {
		t.Run(tc.name, func(t *testing.T) {
			for _, pass := range enumPasses {
				t.Run(pass.name, func(t *testing.T) {
					rig := tc.mk(t)
					ops := fixedWorkload(1, 32, 60, 40)
					n := enumerateFixed(t, rig, ops, pass.opts)
					if n < 64 {
						t.Fatalf("only %d crash points exercised — fail-point wiring broken?", n)
					}
					t.Logf("%s/%s: %d crash points", rig.name, pass.name, n)
				})
			}
		})
	}
}

func TestCrashEnumerationVar(t *testing.T) {
	for _, tc := range varRigs() {
		t.Run(tc.name, func(t *testing.T) {
			for _, pass := range enumPasses {
				t.Run(pass.name, func(t *testing.T) {
					rig := tc.mk(t)
					ops := varWorkload(2, 24, 40, 32, rig.valSize)
					n := enumerateVar(t, rig, ops, pass.opts)
					if n < 48 {
						t.Fatalf("only %d crash points exercised — fail-point wiring broken?", n)
					}
					t.Logf("%s/%s: %d crash points", rig.name, pass.name, n)
				})
			}
		})
	}
}
