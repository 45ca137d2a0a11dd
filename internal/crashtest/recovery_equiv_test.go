package crashtest

// Recovery at several scanners must be indistinguishable from recovery at
// one on every reachable crash image, not just on the seeded traces the core
// tests sample. This file re-runs the crash-point enumeration for the FPTree
// rigs and, at every enumerated image, recovers a clone of the crashed pool
// with RecoveryOptions{Workers: 3} and diffs it against a one-scanner reopen
// of the original pool. The single-threaded rigs and the concurrent
// "fptreec-group" rig have leaf groups, whose recovery walks the leaf list
// through the group table; the "fptreec" rig has none and walks it in SCM.

import (
	"fmt"
	"testing"

	"fptree/internal/core"
	"fptree/internal/scm"
)

// equivScanLimit comfortably exceeds every workload's live-key count.
const equivScanLimit = 10000

// parallelEquiv wraps s's recovery so that every reopen is a one-scanner
// reopen that also recovers a clone of the crash image with three scanners:
// the three-scanner tree must pass its invariants and hold exactly the
// one-scanner tree's pairs.
func parallelEquiv[K, V any](ks Keys[K, V], s rigSpec[K, V]) rigSpec[K, V] {
	open := s.open
	s.open = func(p *scm.Pool, _ ...core.RecoveryOptions) (bound[K, V], error) {
		par, err := open(p.Clone(), core.RecoveryOptions{Workers: 3})
		if err != nil {
			return par, fmt.Errorf("parallel recovery: %v", err)
		}
		seq, err := open(p, core.RecoveryOptions{Workers: 1})
		if err != nil {
			return seq, err
		}
		if err := par.check(); err != nil {
			return seq, fmt.Errorf("parallel invariants: %v", err)
		}
		var least K
		if err := ks.samePairs(par.scan(least, equivScanLimit), seq.scan(least, equivScanLimit)); err != nil {
			return seq, fmt.Errorf("parallel recovery vs sequential: %v", err)
		}
		return seq, nil
	}
	return s
}

// equivGrid runs the rig every through every pass, and each of others through
// the first clean and the first torn one (subtests prefixed by its name), with
// parallel recovery compared at every image.
func equivGrid[K, V any](t *testing.T, ks Keys[K, V], least int, ops func(valSize int) []Op[K, V], every rigSpec[K, V], others ...rigSpec[K, V]) {
	run := func(name string, s rigSpec[K, V], p pass) {
		t.Run(name, func(t *testing.T) { walkPass(t, ks, parallelEquiv(ks, s), p, least, ops, nil) })
	}
	for _, p := range enumPasses {
		run(p.name, every, p)
	}
	for _, s := range others {
		for _, p := range []pass{enumPasses[0], enumPasses[2]} {
			run(s.name+"-"+p.name, s, p)
		}
	}
}

func TestParallelRecoveryEquivEnumFixed(t *testing.T) {
	rigs := fixedRigs()
	equivGrid(t, Fixed, 48, func(int) []Op[uint64, uint64] { return workload(Fixed, 3, 24, 40, 28, 0) },
		rigNamed(rigs, "fptree"), rigNamed(rigs, "fptreec"), rigNamed(rigs, "fptreec-group"))
}

// TestParallelRecoveryEquivEnumVar runs the 8-byte-value rig through every
// pass; kvserver's 122-byte field with values of mixed lengths — where the
// scan reads each slot's key cell on its own and skips the value lines — and
// the concurrent rigs, without and with leaf groups, run the first clean and
// the first torn one.
func TestParallelRecoveryEquivEnumVar(t *testing.T) {
	rigs := varRigs()
	kv := core.Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4, ValueSize: kvValSize}
	equivGrid(t, Var, 32, func(valSize int) []Op[[]byte, []byte] { return workload(Var, 4, 16, 30, 24, valSize) },
		rigNamed(rigs, "fptree"), coreSpec("kv", kv, core.CreateVar, core.OpenVar), rigNamed(rigs, "fptreec"),
		rigNamed(rigs, "fptreec-group"))
}
