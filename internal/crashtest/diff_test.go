package crashtest

// Crash-free differential runs: long generated traces replayed against each
// tree and a map oracle in lockstep, with full-content diffs (point lookups
// over the touched-key universe plus a complete ordered scan) after every
// batch. This is the same checker the fuzz targets funnel into.

import "testing"

func TestDifferentialFixed(t *testing.T) {
	for _, tc := range fixedRigs() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(100); seed < 103; seed++ {
				rig := tc.mk(t)
				RunDifferentialFixed(t, rig.tree, rig.scan, seed, 4000, 97, 300)
				if err := rig.check(); err != nil {
					t.Fatalf("seed %d: invariants after differential run: %v", seed, err)
				}
			}
		})
	}
}

func TestDifferentialVar(t *testing.T) {
	for _, tc := range varRigs() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(200); seed < 202; seed++ {
				rig := tc.mk(t)
				RunDifferentialVar(t, rig.tree, rig.scan, seed, 2000, 89, 200, rig.valSize)
				if err := rig.check(); err != nil {
					t.Fatalf("seed %d: invariants after differential run: %v", seed, err)
				}
			}
		})
	}
}
