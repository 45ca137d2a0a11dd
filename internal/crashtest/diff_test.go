package crashtest

// Crash-free differential runs: long generated traces replayed against each
// tree and a map oracle in lockstep, with full-content diffs (point lookups
// over the touched-key universe plus a complete ordered scan) after every
// batch. This is the same checker the fuzz targets funnel into.

import "testing"

// diffGrid runs every rig through RunDifferential for seeds seed0, seed0+1,
// ..., then checks its invariants.
func diffGrid[K, V any](t *testing.T, ks Keys[K, V], rigs []rigSpec[K, V], seed0 int64, seeds, nops, batch int, keySpace uint64) {
	for _, s := range rigs {
		t.Run(s.name, func(t *testing.T) {
			for seed := seed0; seed < seed0+int64(seeds); seed++ {
				r := s.mk(t)
				RunDifferential(t, ks, r.tree, r.scan, seed, nops, batch, keySpace, r.valSize)
				if err := r.check(); err != nil {
					t.Fatalf("seed %d: invariants after differential run: %v", seed, err)
				}
			}
		})
	}
}

func TestDifferentialFixed(t *testing.T) { diffGrid(t, Fixed, fixedRigs(), 100, 3, 4000, 97, 300) }

func TestDifferentialVar(t *testing.T) { diffGrid(t, Var, varRigs(), 200, 2, 2000, 89, 200) }
