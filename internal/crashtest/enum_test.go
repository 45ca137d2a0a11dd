package crashtest

// Exhaustive crash-point enumeration over every persistent tree and both key
// kinds: every mutating operation of a mixed workload is crashed at each of
// its Persist (and separately, fence) primitives, recovery runs, invariants
// are checked and the full contents are diffed against the map oracle. The
// workload includes a sequential fill (leaf splits, root growth), a random
// trace (updates, duplicate inserts, deletes) and a full delete sweep
// (merges, chain pruning, root collapse), so the grid covers insert, delete,
// split and the recovery paths behind each. crashWalk is the one driver;
// the parallel-recovery and iterator grids reuse it through their rigs and
// hooks.

import (
	"fmt"
	"testing"
)

// workload builds the canonical enumeration trace over key numbers: a
// sequential fill, a random mixed trace and a full delete sweep. valLen is
// the tree's value field.
func workload[K, V any](ks Keys[K, V], seed int64, inserts, trace int, keySpace uint64, valLen int) []Op[K, V] {
	ops := make([]Op[K, V], 0, inserts+trace+int(keySpace))
	for n := uint64(1); n <= uint64(inserts); n++ {
		ops = append(ops, Op[K, V]{Kind: OpInsert, K: ks.key(n), V: ks.value(n*7, valLen)})
	}
	ops = append(ops, ks.Gen(seed, trace, keySpace, valLen)...)
	for n := uint64(1); n <= keySpace; n++ {
		ops = append(ops, Op[K, V]{Kind: OpDelete, K: ks.key(n)})
	}
	return ops
}

// reconcile settles the model for the one operation that was in flight when
// the crash hit: its effects are either fully present (the commit point
// persisted before the crash) or fully absent — anything in between is a
// consistency bug the diff that follows reports.
func reconcile[K, V any](o *Oracle[K, V], t Tree[K, V], op Op[K, V]) {
	v, ok := t.Find(op.K)
	switch op.Kind {
	case OpInsert, OpUpdate:
		if ok && o.ks.equal(v, op.V) {
			o.put(op.K, op.V)
		}
	case OpDelete:
		if !ok {
			o.del(op.K)
		}
	}
}

// hook extends crashWalk at two places; either may be nil.
type hook[K, V any] struct {
	run   func(op func() error) error // runs every attempt of a mutating op
	image func(o *Oracle[K, V]) error // checks every crash image after the diff
}

// crashWalk walks the workload one operation at a time and runs a full
// crash-point enumeration around each mutating op, so no persist point is
// ever skipped (a workload-level enumeration would advance more than one
// primitive per iteration). Every image is reopened, its invariants checked,
// the model reconciled with the op in flight and the whole tree diffed
// before h.image runs. opts must enable exactly one crash kind: after one
// kind's enumeration completes, the op has committed, and re-running it for
// a second kind would exercise a different (idempotent-update) path. Returns
// the number of crash points.
func crashWalk[K, V any](t *testing.T, ks Keys[K, V], r *rig[K, V], ops []Op[K, V], opts Options, h hook[K, V]) int {
	t.Helper()
	if opts.Persists == opts.Fences {
		t.Fatal("crashWalk needs exactly one crash kind per pass")
	}
	if h.run == nil {
		h.run = func(op func() error) error { return op() }
	}
	probe := ks.probe(ops)
	o := NewOracle(ks)
	total := 0
	for i, op := range ops {
		replay := func() error { return o.Replay(r.tree, r.scan, ops[i:i+1]) }
		if op.Kind == OpFind || op.Kind == OpScan {
			if err := replay(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			continue
		}
		at := fmt.Sprintf("op %d (%v %s)", i, op.Kind, ks.format(op.K))
		total += Enumerate(t, r.pool, opts,
			func() error { return h.run(replay) },
			func(Point) error {
				if err := r.reopen(); err != nil {
					return fmt.Errorf("%s: recovery: %v", at, err)
				}
				if err := r.check(); err != nil {
					return fmt.Errorf("%s: invariants: %v", at, err)
				}
				reconcile(o, r.tree, op)
				if err := o.Diff(r.tree, probe, r.scan); err != nil {
					return fmt.Errorf("%s: %v", at, err)
				}
				if h.image != nil {
					if err := h.image(o); err != nil {
						return fmt.Errorf("%s: %v", at, err)
					}
				}
				return nil
			})
	}
	return total
}

// pass is one column of a crash grid.
type pass struct {
	name string
	opts Options
}

// enumPasses is the crash-kind × torn grid each tree runs through. The torn
// pass runs once per base seed: which words of a dirty line a torn crash
// keeps is a draw per crash point, and one base seed left the torn
// afterUpdate bug (core.TestTornAfterUpdateKeepsLiveKey) undrawn at every
// point. tornSeed mixes the base into each point's seed, so the bases are
// decorrelated, and a failing Point still prints the derived seed it replays
// from.
var enumPasses = []pass{
	{"persist", Options{Persists: true}},
	{"fence", Options{Fences: true}},
	{"torn-42", Options{Persists: true, Torn: true, Seed: 42}},
	{"torn-977", Options{Persists: true, Torn: true, Seed: 977}},
	{"torn-31337", Options{Persists: true, Torn: true, Seed: 31337}},
	{"torn-5eed1", Options{Persists: true, Torn: true, Seed: 0x5EED1}},
}

// walkPass runs one pass of the grid over a fresh rig of s and fails when
// fewer than least crash points were exercised — the fail-point wiring would
// be broken. The count is logged: per row and pass it is the harness's
// equivalence gate.
func walkPass[K, V any](t *testing.T, ks Keys[K, V], s rigSpec[K, V], p pass, least int,
	ops func(valSize int) []Op[K, V], h func(*rig[K, V]) hook[K, V]) {
	t.Helper()
	r := s.mk(t)
	var hk hook[K, V]
	if h != nil {
		hk = h(r)
	}
	n := crashWalk(t, ks, r, ops(s.valSize), p.opts, hk)
	if n < least {
		t.Fatalf("only %d crash points exercised — fail-point wiring broken?", n)
	}
	t.Logf("%s/%s: %d crash points", s.name, p.name, n)
}

// enumGrid runs every rig through every pass.
func enumGrid[K, V any](t *testing.T, ks Keys[K, V], rigs []rigSpec[K, V], least int, ops func(valSize int) []Op[K, V]) {
	for _, s := range rigs {
		t.Run(s.name, func(t *testing.T) {
			for _, p := range enumPasses {
				t.Run(p.name, func(t *testing.T) { walkPass(t, ks, s, p, least, ops, nil) })
			}
		})
	}
}

func TestCrashEnumerationFixed(t *testing.T) {
	enumGrid(t, Fixed, fixedRigs(), 64, func(int) []Op[uint64, uint64] { return workload(Fixed, 1, 32, 60, 40, 0) })
}

func TestCrashEnumerationVar(t *testing.T) {
	enumGrid(t, Var, varRigs(), 48, func(valSize int) []Op[[]byte, []byte] { return workload(Var, 2, 24, 40, 32, valSize) })
}
