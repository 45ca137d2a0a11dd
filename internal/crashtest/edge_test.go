package crashtest

// Named recovery edge cases from the issue checklist: crash mid-leaf-split,
// crash in the window between the fingerprint write and the bitmap commit,
// crash during allocator/root-growth metadata updates, and a double crash —
// the recovery procedure itself crashed at every one of its own persists,
// then recovered again from the resulting state.

import (
	"fmt"
	"path/filepath"
	"testing"

	"fptree/internal/core"
	"fptree/internal/scm"
	"fptree/internal/wbtree"
)

// TestCrashMidLeafSplit fills one leaf to capacity and enumerates every
// persist of the insert that splits it, for every fixed rig. The final diff
// after each crash point proves the split is all-or-nothing.
func TestCrashMidLeafSplit(t *testing.T) {
	for _, s := range fixedRigs() {
		t.Run(s.name, func(t *testing.T) {
			ops := make([]Op[uint64, uint64], 0, s.leafCap+1)
			for k := uint64(1); k <= uint64(s.leafCap)+1; k++ {
				ops = append(ops, Op[uint64, uint64]{Kind: OpInsert, K: k, V: k * 3})
			}
			n := crashWalk(t, Fixed, s.mk(t), ops, Options{Persists: true}, hook[uint64, uint64]{})
			if n <= 4 {
				t.Fatalf("split insert exercised only %d persist points — no split happened?", n)
			}
		})
	}
}

// TestCrashBetweenFingerprintAndBitmapCommit pins the FPTree's non-split
// insert protocol: exactly two persists — the interleaved key+value slot in
// one flush, then the fingerprint and bitmap commit batched into one flush
// of the shared header line (the bitmap word is last in the line, so a torn
// crash can never commit the valid bit without its fingerprint). A crash at
// either point — including inside the fingerprint/bitmap window — leaves
// the insert invisible and the rest of the leaf untouched.
func TestCrashBetweenFingerprintAndBitmapCommit(t *testing.T) {
	pool := newTestPool()
	tr, err := core.Create(pool, core.Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 4; k++ {
		if err := tr.Insert(k, k*7); err != nil {
			t.Fatal(err)
		}
	}
	n := EveryPersist(t, pool,
		func() error { return tr.Upsert(99, 1234) },
		func(pt Point) error {
			tr2, err := core.Open(pool)
			if err != nil {
				return fmt.Errorf("recovery: %v", err)
			}
			tr = tr2
			if err := tr.CheckInvariants(); err != nil {
				return err
			}
			if _, ok := tr.Find(99); ok {
				return fmt.Errorf("insert visible before its bitmap commit")
			}
			for k := uint64(1); k <= 4; k++ {
				if v, ok := tr.Find(k); !ok || v != k*7 {
					return fmt.Errorf("pre-existing key %d = %d,%v after crash", k, v, ok)
				}
			}
			return nil
		})
	if n != 2 {
		t.Fatalf("non-split FPTree insert exercised %d persist points, want 2 (key+value, fingerprint+bitmap)", n)
	}
	if v, ok := tr.Find(99); !ok || v != 1234 {
		t.Fatalf("key 99 = %d,%v after completed insert", v, ok)
	}
}

// TestCrashDuringRootGrowthAllocation enumerates the wBTree's very first
// insert, which allocates the root leaf and commits it through the root
// log — a crash inside the allocator metadata update must either hand the
// block back or complete the root switch.
func TestCrashDuringRootGrowthAllocation(t *testing.T) {
	pool := newTestPool()
	tr, err := wbtree.New(pool, wbtree.Config{InnerCap: 4, LeafCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := EveryPersist(t, pool,
		func() error { return tr.Upsert(7, 70) },
		func(pt Point) error {
			tr2, err := wbtree.Open(pool)
			if err != nil {
				return fmt.Errorf("recovery: %v", err)
			}
			tr = tr2
			if err := tr.CheckInvariants(); err != nil {
				return err
			}
			if v, ok := tr.Find(7); ok && v != 70 {
				return fmt.Errorf("key 7 torn: %d", v)
			}
			return nil
		})
	if n == 0 {
		t.Fatal("first insert performed no persists")
	}
	if v, ok := tr.Find(7); !ok || v != 70 {
		t.Fatalf("key 7 = %d,%v after completed insert", v, ok)
	}
}

// TestDoubleCrashDuringRecovery crashes a leaf split, saves the resulting
// arena image, and then crashes recovery itself at every one of recovery's
// own persist points — reloading the image fresh each time so every inner
// point starts from the identical dirty state. After each nested crash a
// second, clean recovery must succeed and restore all acknowledged data.
func TestDoubleCrashDuringRecovery(t *testing.T) {
	type sys struct {
		name string
		mk   func(pool *scm.Pool) error              // create + fill one leaf
		ins  func(pool *scm.Pool, k, v uint64) error // upsert via a fresh handle
		open func(pool *scm.Pool) (Tree[uint64, uint64], func() error, error)
		cap  uint64
	}
	systems := []sys{
		{
			name: "fptree",
			mk: func(pool *scm.Pool) error {
				_, err := core.Create(pool, core.Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4})
				return err
			},
			ins: func(pool *scm.Pool, k, v uint64) error {
				tr, err := core.Open(pool)
				if err != nil {
					return err
				}
				return tr.Upsert(k, v)
			},
			open: func(pool *scm.Pool) (Tree[uint64, uint64], func() error, error) {
				tr, err := core.Open(pool)
				if err != nil {
					return nil, nil, err
				}
				return tr, tr.CheckInvariants, nil
			},
			cap: 8,
		},
		{
			name: "wbtree",
			mk: func(pool *scm.Pool) error {
				_, err := wbtree.New(pool, wbtree.Config{InnerCap: 4, LeafCap: 4})
				return err
			},
			ins: func(pool *scm.Pool, k, v uint64) error {
				tr, err := wbtree.Open(pool)
				if err != nil {
					return err
				}
				return tr.Upsert(k, v)
			},
			open: func(pool *scm.Pool) (Tree[uint64, uint64], func() error, error) {
				tr, err := wbtree.Open(pool)
				if err != nil {
					return nil, nil, err
				}
				return tr, tr.CheckInvariants, nil
			},
			cap: 4,
		},
	}
	for _, s := range systems {
		t.Run(s.name, func(t *testing.T) {
			img := filepath.Join(t.TempDir(), "arena.img")
			pool := scm.NewPool(2<<20, scm.LatencyConfig{CacheBytes: -1})
			if err := s.mk(pool); err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k <= s.cap; k++ {
				if err := s.ins(pool, k, k*5); err != nil {
					t.Fatal(err)
				}
			}
			verify := func(tr Tree[uint64, uint64], check func() error, pt string) error {
				if err := check(); err != nil {
					return fmt.Errorf("%s: invariants: %v", pt, err)
				}
				for k := uint64(1); k <= s.cap; k++ {
					if v, ok := tr.Find(k); !ok || v != k*5 {
						return fmt.Errorf("%s: acked key %d = %d,%v", pt, k, v, ok)
					}
				}
				if v, ok := tr.Find(s.cap + 1); ok && v != 999 {
					return fmt.Errorf("%s: in-flight key torn: %d", pt, v)
				}
				return nil
			}
			innerPoints := 0
			// Outer enumeration: crash the splitting insert at every persist.
			EveryPersist(t, pool,
				func() error { return s.ins(pool, s.cap+1, 999) },
				func(outer Point) error {
					// The pool now holds the durable post-crash state; freeze it.
					if err := pool.Save(img); err != nil {
						return err
					}
					// Inner enumeration: crash recovery itself at every persist.
					for step := int64(1); ; step++ {
						p2, err := scm.Load(img, scm.LatencyConfig{CacheBytes: -1})
						if err != nil {
							return err
						}
						p2.FailAfterFlushes(step)
						crashed, err := Crashes(func() error {
							_, _, err := s.open(p2)
							return err
						})
						p2.FailAfterFlushes(-1)
						if err != nil {
							return fmt.Errorf("%v: recovery step %d: %v", outer, step, err)
						}
						if !crashed {
							break
						}
						p2.Crash()
						innerPoints++
						tr2, check2, err := s.open(p2)
						if err != nil {
							return fmt.Errorf("%v: second recovery after recovery crash %d: %v", outer, step, err)
						}
						if err := verify(tr2, check2, fmt.Sprintf("%v/recovery-crash %d", outer, step)); err != nil {
							return err
						}
						// Recovery of an already-recovered arena must be a no-op.
						tr3, check3, err := s.open(p2)
						if err != nil {
							return fmt.Errorf("%v: idempotent re-recovery: %v", outer, err)
						}
						if err := verify(tr3, check3, "re-recovery"); err != nil {
							return err
						}
					}
					// Recover the original pool so the outer enumeration resumes.
					tr, check, err := s.open(pool)
					if err != nil {
						return err
					}
					return verify(tr, check, outer.String())
				})
			if innerPoints == 0 {
				t.Fatal("no recovery persist was ever crash-tested — recovery never wrote?")
			}
			t.Logf("%s: %d nested recovery crash points", s.name, innerPoints)
		})
	}
}
