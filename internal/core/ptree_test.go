package core

import (
	"math/rand"
	"testing"
)

// The PTree is the FPTree minus fingerprints, with separate key/value
// arrays; it shares the whole persistence machinery, so the suite here
// focuses on the layout-specific behaviour and re-runs the crash drills.

func TestPTreeBasics(t *testing.T) {
	tr := newTree(t, Config{Variant: VariantPTree, LeafCap: 8, InnerFanout: 4, GroupSize: 4})
	rng := rand.New(rand.NewSource(8))
	const n = 3000
	for _, k := range rng.Perm(n) {
		if err := tr.Insert(uint64(k)+1, uint64(k)*5); err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; k <= n; k++ {
		v, ok := tr.Find(uint64(k))
		if !ok || v != uint64(k-1)*5 {
			t.Fatalf("find(%d) = %d,%v", k, v, ok)
		}
	}
	for k := 1; k <= n; k += 2 {
		if ok, err := tr.Delete(uint64(k)); err != nil || !ok {
			t.Fatalf("delete(%d): %v %v", k, ok, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPTreeRecovery(t *testing.T) {
	pool := newPool(64)
	tr, err := Create(pool, Config{Variant: VariantPTree, LeafCap: 8, InnerFanout: 4, GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 2000; i++ {
		if err := tr.Insert(i, i+3); err != nil {
			t.Fatal(err)
		}
	}
	pool.Crash()
	tr2, err := Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.cfg.Variant != VariantPTree {
		t.Fatal("variant not preserved across recovery")
	}
	for i := uint64(1); i <= 2000; i++ {
		v, ok := tr2.Find(i)
		if !ok || v != i+3 {
			t.Fatalf("find(%d) = %d,%v", i, v, ok)
		}
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPTreeCrashAtEveryFlush(t *testing.T) {
	testCrashOps(t, Config{Variant: VariantPTree, LeafCap: 8, InnerFanout: 4, GroupSize: 4},
		func(tr *Tree, rng *rand.Rand, acked map[uint64]uint64) (uint64, func() error) {
			k := rng.Uint64()%10000 + 1
			for {
				if _, dup := acked[k]; !dup {
					break
				}
				k = rng.Uint64()%10000 + 1
			}
			return k, func() error { return tr.Insert(k, k*7) }
		})
}

func TestPTreeProbesLinear(t *testing.T) {
	// Without fingerprints the expected number of key probes for a uniform
	// successful search is (m+1)/2 over the *fill* of the leaf — far above
	// the FPTree's ~1. This is Figure 4's contrast.
	mk := func(variant Variant) float64 {
		tr, err := Create(newPool(64), Config{Variant: variant, LeafCap: 32, InnerFanout: 64, GroupSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		keys := make([]uint64, 0, 20000)
		for i := 0; i < 20000; i++ {
			k := rng.Uint64() | 1
			keys = append(keys, k)
			if err := tr.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		return avgProbes(&tr.Ops, func() {
			for _, k := range keys {
				if _, ok := tr.Find(k); !ok {
					t.Fatal("missing key")
				}
			}
		})
	}
	pt := mk(VariantPTree)
	fp := mk(VariantFPTree)
	if pt < 4 {
		t.Fatalf("PTree avg probes = %.2f, expected linear-scan cost", pt)
	}
	if fp > 1.5 {
		t.Fatalf("FPTree avg probes = %.2f, expected ≈1", fp)
	}
	if pt < 3*fp {
		t.Fatalf("expected PTree (%.2f) >> FPTree (%.2f)", pt, fp)
	}
}

func TestPTreeVarBasics(t *testing.T) {
	tr := newVarTree(t, Config{Variant: VariantPTree, LeafCap: 8, InnerFanout: 4, GroupSize: 4})
	for i := 0; i < 1500; i++ {
		if err := tr.Insert(strKey(i), strKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1500; i++ {
		if _, ok := tr.Find(strKey(i)); !ok {
			t.Fatalf("key %d missing", i)
		}
	}
	pool := tr.Pool()
	pool.Crash()
	tr2, err := OpenVar(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if _, ok := tr2.Find(strKey(i)); !ok {
			t.Fatalf("key %d missing after recovery", i)
		}
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentRejectsPTreeVariant(t *testing.T) {
	if _, err := CCreate(newPool(8), Config{Variant: VariantPTree, LeafCap: 8}); err == nil {
		t.Fatal("CCreate accepted PTree variant")
	}
	if _, err := CCreateVar(newPool(8), Config{Variant: VariantPTree, LeafCap: 8}); err == nil {
		t.Fatal("CCreateVar accepted PTree variant")
	}
}
