package core

import (
	"math/rand"
	"testing"

	"fptree/internal/obs"
)

// TestFingerprintFalsePositiveRateUniform checks the paper's Section 4.2
// argument empirically: with a uniform 1-byte hash, a fingerprint compare
// matches a differing key with probability 1/256, so the measured
// false-positive rate over many lookups must sit within ±20% of 1/256.
func TestFingerprintFalsePositiveRateUniform(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 56, InnerFanout: 64})
	rng := rand.New(rand.NewSource(42))
	const n = 50_000
	keys := make([]uint64, n)
	seen := map[uint64]bool{}
	for i := range keys {
		k := rng.Uint64()
		for seen[k] {
			k = rng.Uint64()
		}
		seen[k] = true
		keys[i] = k
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.Ops = OpStats{} // measure lookups only
	for i, k := range keys {
		v, ok := tr.Find(k)
		if !ok || v != uint64(i) {
			t.Fatalf("Find(%d) = %d, %v", k, v, ok)
		}
	}
	if tr.Ops.FPCompares.Load() == 0 {
		t.Fatal("no fingerprint compares recorded")
	}
	if rate := tr.Ops.FPRate(); rate < 0.8/256 || rate > 1.2/256 {
		t.Fatalf("fingerprint false-positive rate %.5f outside 1/256 ± 20%% = [%.5f, %.5f] (compares=%d, falsePos=%d)",
			rate, 0.8/256, 1.2/256, tr.Ops.FPCompares.Load(), tr.Ops.FPFalsePositives.Load())
	}
	// The headline claim: fingerprints keep expected key probes at ~1.
	if avg := tr.Ops.AvgKeyProbes(); avg >= 1.5 {
		t.Fatalf("average key probes per search = %.3f, want ~1", avg)
	}
}

func TestOpStatsCountersAdvance(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 8, InnerFanout: 4})
	for i := uint64(0); i < 1000; i++ {
		if err := tr.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Ops.LeafSplits.Load() == 0 {
		t.Fatal("no leaf splits counted after 1000 inserts into 8-entry leaves")
	}
	for i := uint64(0); i < 1000; i++ {
		if _, ok := tr.Find(i); !ok {
			t.Fatalf("Find(%d) failed", i)
		}
	}
	if tr.Ops.Searches.Load() == 0 || tr.Ops.FPCompares.Load() == 0 {
		t.Fatalf("search counters did not advance: %d searches, %d compares",
			tr.Ops.Searches.Load(), tr.Ops.FPCompares.Load())
	}
	// FPHits and KeyProbes coincide on the fingerprint path.
	if tr.Ops.FPHits.Load() != tr.Ops.KeyProbes.Load() {
		t.Fatalf("FPHits %d != KeyProbes %d on fingerprint-only workload",
			tr.Ops.FPHits.Load(), tr.Ops.KeyProbes.Load())
	}
}

func TestTreeRegisterMetricsSeries(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 8, InnerFanout: 4})
	reg := obs.NewRegistry()
	tr.RegisterMetrics(reg)
	for i := uint64(0); i < 100; i++ {
		if err := tr.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 100; i++ {
		if _, ok := tr.Find(i); !ok {
			t.Fatalf("Find(%d) failed", i)
		}
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"fptree_searches_total",
		"fptree_key_probes_total",
		"fptree_fingerprint_compares_total",
		"fptree_fingerprint_hits_total",
		"fptree_fingerprint_false_positives_total",
		"fptree_leaf_splits_total",
		"fptree_inner_rebuilds_total",
	} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("registry missing series %q: %v", name, reg.Names())
		}
	}
	if snap.Get("fptree_searches_total") == 0 {
		t.Fatal("registered series does not read the live counter")
	}
}

func TestCTreeRegisterMetricsIncludesHTM(t *testing.T) {
	ct, err := CCreate(newPool(64), Config{LeafCap: 8, InnerFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ct.RegisterMetrics(reg)
	for _, name := range []string{
		"fptree_fingerprint_false_positives_total",
		"htm_aborts_total",
		"htm_restarts_total",
		"htm_fallbacks_total",
	} {
		if _, ok := reg.Snapshot()[name]; !ok {
			t.Fatalf("registry missing series %q: %v", name, reg.Names())
		}
	}
}
