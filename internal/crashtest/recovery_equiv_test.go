package crashtest

// Parallel recovery must be indistinguishable from sequential recovery on
// every reachable crash image, not just on the seeded traces the core tests
// sample. This file re-runs the crash-point enumeration for the FPTree rigs
// and, at every enumerated image, recovers a clone of the crashed pool with
// RecoveryOptions{Workers: 3} and diffs it against the sequential reopen of
// the original pool.

import (
	"bytes"
	"fmt"
	"testing"

	"fptree/internal/core"
)

// equivScanLimit comfortably exceeds every workload's live-key count.
const equivScanLimit = 10000

func enumerateFixedEquiv(t *testing.T, rig *fixedRig, ops []FixedOp, opts Options) int {
	t.Helper()
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
				clone := rig.pool.Clone()
				if err := rig.reopen(); err != nil {
					return fmt.Errorf("op %d (%v %d): recovery: %v", i, op.Kind, op.K, err)
				}
				if err := rig.check(); err != nil {
					return fmt.Errorf("op %d (%v %d): invariants: %v", i, op.Kind, op.K, err)
				}
				par, err := core.Open(clone, core.RecoveryOptions{Workers: 3})
				if err != nil {
					return fmt.Errorf("op %d (%v %d): parallel recovery: %v", i, op.Kind, op.K, err)
				}
				if err := par.CheckInvariants(); err != nil {
					return fmt.Errorf("op %d (%v %d): parallel invariants: %v", i, op.Kind, op.K, err)
				}
				seq := rig.scan(0, equivScanLimit)
				got := par.ScanN(0, equivScanLimit)
				if len(got) != len(seq) {
					return fmt.Errorf("op %d (%v %d): parallel recovered %d pairs, sequential %d",
						i, op.Kind, op.K, len(got), len(seq))
				}
				for j := range got {
					if got[j].Key != seq[j].K || got[j].Value != seq[j].V {
						return fmt.Errorf("op %d (%v %d): pair %d: parallel %d=%d, sequential %d=%d",
							i, op.Kind, op.K, j, got[j].Key, got[j].Value, seq[j].K, seq[j].V)
					}
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

func enumerateVarEquiv(t *testing.T, rig *varRig, ops []VarOp, opts Options) int {
	t.Helper()
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
				clone := rig.pool.Clone()
				if err := rig.reopen(); err != nil {
					return fmt.Errorf("op %d (%v %q): recovery: %v", i, op.Kind, op.K, err)
				}
				if err := rig.check(); err != nil {
					return fmt.Errorf("op %d (%v %q): invariants: %v", i, op.Kind, op.K, err)
				}
				par, err := core.OpenVar(clone, core.RecoveryOptions{Workers: 3})
				if err != nil {
					return fmt.Errorf("op %d (%v %q): parallel recovery: %v", i, op.Kind, op.K, err)
				}
				if err := par.CheckInvariants(); err != nil {
					return fmt.Errorf("op %d (%v %q): parallel invariants: %v", i, op.Kind, op.K, err)
				}
				seq := rig.scan(nil, equivScanLimit)
				got := par.ScanN(nil, equivScanLimit)
				if len(got) != len(seq) {
					return fmt.Errorf("op %d (%v %q): parallel recovered %d pairs, sequential %d",
						i, op.Kind, op.K, len(got), len(seq))
				}
				for j := range got {
					if !bytes.Equal(got[j].Key, seq[j].K) || !bytes.Equal(got[j].Value, seq[j].V) {
						return fmt.Errorf("op %d (%v %q): pair %d: parallel %q=%q, sequential %q=%q",
							i, op.Kind, op.K, j, got[j].Key, got[j].Value, seq[j].K, seq[j].V)
					}
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

func TestParallelRecoveryEquivEnumFixed(t *testing.T) {
	for _, pass := range enumPasses {
		t.Run(pass.name, func(t *testing.T) {
			rig := fptreeFixedRig(t, core.VariantFPTree)
			ops := fixedWorkload(3, 24, 40, 28)
			n := enumerateFixedEquiv(t, rig, ops, pass.opts)
			if n < 48 {
				t.Fatalf("only %d crash points exercised — fail-point wiring broken?", n)
			}
			t.Logf("%s/%s: %d crash points, parallel == sequential at each", rig.name, pass.name, n)
		})
	}
}

// TestParallelRecoveryEquivEnumVar runs the 8-byte-value rig through every
// pass, and kvserver's 122-byte field with values of mixed lengths — where the
// scan reads each slot's key cell on its own and skips the value lines —
// through the first clean and the first torn one.
func TestParallelRecoveryEquivEnumVar(t *testing.T) {
	run := func(name string, valSize int, opts Options) {
		t.Run(name, func(t *testing.T) {
			rig := fptreeVarRig(t, core.VariantFPTree, false, valSize)
			ops := varWorkload(4, 16, 30, 24, valSize)
			n := enumerateVarEquiv(t, rig, ops, opts)
			if n < 32 {
				t.Fatalf("only %d crash points exercised — fail-point wiring broken?", n)
			}
			t.Logf("%s/%s: %d crash points, parallel == sequential at each", rig.name, name, n)
		})
	}
	for _, pass := range enumPasses {
		run(pass.name, varValLen, pass.opts)
	}
	for _, pass := range []int{0, 2} {
		run("kv-"+enumPasses[pass].name, kvValSize, enumPasses[pass].opts)
	}
}
