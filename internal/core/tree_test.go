package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fptree/internal/crashtest"
	"fptree/internal/scm"
)

func newPool(sizeMB int) *scm.Pool {
	return scm.NewPool(int64(sizeMB)<<20, scm.LatencyConfig{CacheBytes: -1})
}

func newTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := Create(newPool(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// configs the suite repeats over: small leaves force deep trees and frequent
// splits; groups on/off exercises both allocation paths.
var testConfigs = []struct {
	name string
	cfg  Config
}{
	{"leaf8-groups4", Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4}},
	{"leaf8-nogroups", Config{LeafCap: 8, InnerFanout: 4}},
	{"leaf56-groups8", Config{LeafCap: 56, InnerFanout: 16, GroupSize: 8}},
	{"leaf2-fanout2", Config{LeafCap: 2, InnerFanout: 2, GroupSize: 2}},
	{"leaf64", Config{LeafCap: 64, InnerFanout: 8}},
}

func TestEmptyTree(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 8})
	if _, ok := tr.Find(1); ok {
		t.Fatal("Find on empty tree")
	}
	if ok, _ := tr.Delete(1); ok {
		t.Fatal("Delete on empty tree")
	}
	if ok, _ := tr.Update(1, 2); ok {
		t.Fatal("Update on empty tree")
	}
	if got := tr.ScanN(0, 10); len(got) != 0 {
		t.Fatal("Scan on empty tree")
	}
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatal("empty tree has non-zero size or height")
	}
}

func TestInsertFindSingle(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 8})
	if err := tr.Insert(42, 4200); err != nil {
		t.Fatal(err)
	}
	v, ok := tr.Find(42)
	if !ok || v != 4200 {
		t.Fatalf("Find(42) = %d,%v", v, ok)
	}
	if _, ok := tr.Find(43); ok {
		t.Fatal("found absent key")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestInsertManyAscending(t *testing.T) {
	for _, tc := range testConfigs {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTree(t, tc.cfg)
			const n = 3000
			for i := uint64(1); i <= n; i++ {
				if err := tr.Insert(i, i*10); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			for i := uint64(1); i <= n; i++ {
				v, ok := tr.Find(i)
				if !ok || v != i*10 {
					t.Fatalf("Find(%d) = %d,%v", i, v, ok)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestInsertManyRandom(t *testing.T) {
	for _, tc := range testConfigs {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTree(t, tc.cfg)
			rng := rand.New(rand.NewSource(7))
			keys := rng.Perm(5000)
			for _, k := range keys {
				if err := tr.Insert(uint64(k)+1, uint64(k)*3); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range keys {
				v, ok := tr.Find(uint64(k) + 1)
				if !ok || v != uint64(k)*3 {
					t.Fatalf("Find(%d) = %d,%v", k+1, v, ok)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUpdate(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4})
	for i := uint64(1); i <= 500; i++ {
		if err := tr.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 500; i++ {
		ok, err := tr.Update(i, i+1000)
		if err != nil || !ok {
			t.Fatalf("Update(%d) = %v,%v", i, ok, err)
		}
	}
	for i := uint64(1); i <= 500; i++ {
		v, ok := tr.Find(i)
		if !ok || v != i+1000 {
			t.Fatalf("after update Find(%d) = %d,%v", i, v, ok)
		}
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d after updates", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateOnFullLeafSplits(t *testing.T) {
	// Fill exactly one leaf, then update: the leaf must split (Algorithm 8's
	// split case) and the update must still be atomic.
	tr := newTree(t, Config{LeafCap: 4, InnerFanout: 4})
	for i := uint64(1); i <= 4; i++ {
		if err := tr.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := tr.Update(1, 99)
	if err != nil || !ok {
		t.Fatalf("Update = %v,%v", ok, err)
	}
	v, ok := tr.Find(1)
	if !ok || v != 99 {
		t.Fatalf("Find(1) = %d,%v", v, ok)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpsert(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 8})
	if err := tr.Upsert(5, 50); err != nil {
		t.Fatal(err)
	}
	if err := tr.Upsert(5, 51); err != nil {
		t.Fatal(err)
	}
	v, ok := tr.Find(5)
	if !ok || v != 51 {
		t.Fatalf("Find(5) = %d,%v", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestDeleteAll(t *testing.T) {
	for _, tc := range testConfigs {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTree(t, tc.cfg)
			const n = 2000
			rng := rand.New(rand.NewSource(3))
			keys := rng.Perm(n)
			for _, k := range keys {
				if err := tr.Insert(uint64(k)+1, uint64(k)); err != nil {
					t.Fatal(err)
				}
			}
			for i, k := range keys {
				ok, err := tr.Delete(uint64(k) + 1)
				if err != nil || !ok {
					t.Fatalf("Delete(%d) = %v,%v", k+1, ok, err)
				}
				if _, ok := tr.Find(uint64(k) + 1); ok {
					t.Fatalf("key %d still found after delete", k+1)
				}
				if i%500 == 0 {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tr.Len() != 0 {
				t.Fatalf("Len = %d after deleting everything", tr.Len())
			}
			// The tree must be reusable after emptying.
			if err := tr.Insert(1, 2); err != nil {
				t.Fatal(err)
			}
			if v, ok := tr.Find(1); !ok || v != 2 {
				t.Fatal("insert after emptying failed")
			}
		})
	}
}

func TestDeleteAbsent(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 8})
	if err := tr.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	if ok, _ := tr.Delete(2); ok {
		t.Fatal("deleted absent key")
	}
	if tr.Len() != 1 {
		t.Fatal("Len changed on absent delete")
	}
}

func TestScanOrderAndBounds(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4})
	rng := rand.New(rand.NewSource(11))
	for _, k := range rng.Perm(1000) {
		if err := tr.Insert(uint64(k)*2+2, uint64(k)); err != nil { // even keys 2..2000
			t.Fatal(err)
		}
	}
	got := tr.ScanN(501, 100)
	if len(got) != 100 {
		t.Fatalf("ScanN returned %d", len(got))
	}
	want := uint64(502)
	for i, kv := range got {
		if kv.Key != want {
			t.Fatalf("scan[%d] = %d, want %d", i, kv.Key, want)
		}
		want += 2
	}
	// Scan beyond the last key yields nothing.
	if got := tr.ScanN(3000, 5); len(got) != 0 {
		t.Fatalf("scan past end returned %d", len(got))
	}
	// Full scan yields every key in order.
	all := tr.ScanN(0, 2000)
	if len(all) != 1000 {
		t.Fatalf("full scan returned %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Key <= all[i-1].Key {
			t.Fatal("scan out of order")
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 8})
	for i := uint64(1); i <= 100; i++ {
		if err := tr.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	var seen int
	tr.Scan(0, func(uint64, uint64) bool {
		seen++
		return seen < 7
	})
	if seen != 7 {
		t.Fatalf("early stop visited %d", seen)
	}
}

func TestDuplicateInsertVisibleAndUpdateable(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 8})
	if err := tr.Insert(9, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(9, 2); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d with duplicate", tr.Len())
	}
	if _, ok := tr.Find(9); !ok {
		t.Fatal("duplicate key not found")
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 4, InnerFanout: 4})
	for i := uint64(1); i <= 4000; i++ {
		if err := tr.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if h := tr.Height(); h < 3 || h > 10 {
		t.Fatalf("height %d out of expected band", h)
	}
}

// TestRecoveryCleanRestart simulates save + reload and checks contents.
func TestRecoveryCleanRestart(t *testing.T) {
	for _, tc := range testConfigs {
		t.Run(tc.name, func(t *testing.T) {
			pool := newPool(64)
			tr, err := Create(pool, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			const n = 2000
			for i := uint64(1); i <= n; i++ {
				if err := tr.Insert(i, i^0xabc); err != nil {
					t.Fatal(err)
				}
			}
			for i := uint64(1); i <= n; i += 3 {
				if _, err := tr.Delete(i); err != nil {
					t.Fatal(err)
				}
			}
			pool.Crash() // a clean restart discards the cache view too
			tr2, err := Open(pool)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(1); i <= n; i++ {
				v, ok := tr2.Find(i)
				if i%3 == 1 {
					if ok {
						t.Fatalf("deleted key %d resurrected", i)
					}
				} else if !ok || v != i^0xabc {
					t.Fatalf("Find(%d) = %d,%v after recovery", i, v, ok)
				}
			}
			if err := tr2.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashAtEveryFlushDuringInserts is the core durability claim: crash the
// machine at every possible flush boundary during a batch of inserts, recover,
// and check that the tree contains exactly a prefix of the acknowledged
// operations plus possibly nothing of the in-flight one.
func TestCrashAtEveryFlushDuringInserts(t *testing.T) {
	for _, tc := range testConfigs {
		t.Run(tc.name, func(t *testing.T) {
			testCrashOps(t, tc.cfg, func(tr *Tree, rng *rand.Rand, acked map[uint64]uint64) (uint64, func() error) {
				k := rng.Uint64()%10000 + 1
				for {
					if _, dup := acked[k]; !dup {
						break
					}
					k = rng.Uint64()%10000 + 1
				}
				return k, func() error { return tr.Insert(k, k*7) }
			})
		})
	}
}

func TestCrashAtEveryFlushDuringDeletes(t *testing.T) {
	for _, tc := range testConfigs {
		t.Run(tc.name, func(t *testing.T) {
			testCrashDeletes(t, tc.cfg)
		})
	}
}

// testCrashOps drives operations with a crash injected at flush k for
// growing k until an operation completes without crashing; after each crash
// it recovers and verifies all previously acknowledged data.
func testCrashOps(t *testing.T, cfg Config, mkOp func(*Tree, *rand.Rand, map[uint64]uint64) (uint64, func() error)) {
	t.Helper()
	pool := newPool(64)
	tr, err := Create(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	acked := map[uint64]uint64{}
	// Base data so splits and deletes have structure to damage.
	for i := uint64(1); i <= 300; i++ {
		k := i * 13
		if err := tr.Insert(k, k*7); err != nil {
			t.Fatal(err)
		}
		acked[k] = k * 7
	}
	step := int64(1)
	for op := 0; op < 120; op++ {
		key, fn := mkOp(tr, rng, acked)
		pool.FailAfterFlushes(step)
		crashed, opErr := crashtest.Crashes(fn)
		pool.FailAfterFlushes(-1)
		if opErr != nil {
			t.Fatal(opErr)
		}
		if !crashed {
			acked[key] = key * 7
			step = 1
			continue
		}
		step++
		pool.Crash()
		tr, err = Open(pool)
		if err != nil {
			t.Fatalf("op %d step %d: recovery failed: %v", op, step, err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("op %d step %d: %v", op, step, err)
		}
		for k, v := range acked {
			got, ok := tr.Find(k)
			if !ok || got != v {
				t.Fatalf("op %d step %d: acked key %d = %d,%v (want %d)", op, step, k, got, ok, v)
			}
		}
		// The in-flight key must be either fully present or fully absent.
		if got, ok := tr.Find(key); ok && got != key*7 {
			t.Fatalf("op %d step %d: in-flight key %d has torn value %d", op, step, key, got)
		}
		op-- // retry the same op with a deeper crash point
	}
}

func testCrashDeletes(t *testing.T, cfg Config) {
	t.Helper()
	pool := newPool(64)
	tr, err := Create(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := map[uint64]uint64{}
	for i := uint64(1); i <= 400; i++ {
		k := i * 3
		if err := tr.Insert(k, k+1); err != nil {
			t.Fatal(err)
		}
		live[k] = k + 1
	}
	rng := rand.New(rand.NewSource(5))
	step := int64(1)
	for op := 0; op < 150 && len(live) > 0; op++ {
		var key uint64
		for k := range live {
			key = k
			break
		}
		_ = rng
		pool.FailAfterFlushes(step)
		crashed, opErr := crashtest.Crashes(func() error {
			_, err := tr.Delete(key)
			return err
		})
		pool.FailAfterFlushes(-1)
		if opErr != nil {
			t.Fatal(opErr)
		}
		if !crashed {
			delete(live, key)
			step = 1
			continue
		}
		step++
		pool.Crash()
		tr, err = Open(pool)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("op %d step %d: %v", op, step, err)
		}
		// The in-flight delete may have rolled forward (key gone) or back
		// (key intact with its value). All other keys must be intact.
		for k, v := range live {
			if k == key {
				continue
			}
			got, ok := tr.Find(k)
			if !ok || got != v {
				t.Fatalf("op %d step %d: live key %d = %d,%v", op, step, k, got, ok)
			}
		}
		if got, ok := tr.Find(key); ok && got != live[key] {
			t.Fatalf("op %d step %d: torn value for in-flight delete", op, step)
		} else if !ok {
			delete(live, key) // rolled forward
		}
		op--
	}
}

// TestQuickAgainstOracle drives random op sequences against a map oracle.
func TestQuickAgainstOracle(t *testing.T) {
	cfgs := []Config{
		{LeafCap: 4, InnerFanout: 3, GroupSize: 2},
		{LeafCap: 16, InnerFanout: 8},
	}
	for _, cfg := range cfgs {
		cfg := cfg
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			tr, err := Create(newPool(32), cfg)
			if err != nil {
				t.Fatal(err)
			}
			oracle := map[uint64]uint64{}
			for i := 0; i < 800; i++ {
				k := rng.Uint64()%300 + 1
				switch rng.Intn(4) {
				case 0: // upsert
					v := rng.Uint64()
					if err := tr.Upsert(k, v); err != nil {
						t.Fatal(err)
					}
					oracle[k] = v
				case 1: // delete
					ok, err := tr.Delete(k)
					if err != nil {
						t.Fatal(err)
					}
					if _, want := oracle[k]; ok != want {
						t.Fatalf("delete(%d) = %v, oracle %v", k, ok, want)
					}
					delete(oracle, k)
				case 2: // find
					v, ok := tr.Find(k)
					want, wok := oracle[k]
					if ok != wok || (ok && v != want) {
						t.Fatalf("find(%d) = %d,%v want %d,%v", k, v, ok, want, wok)
					}
				case 3: // update
					v := rng.Uint64()
					ok, err := tr.Update(k, v)
					if err != nil {
						t.Fatal(err)
					}
					if _, want := oracle[k]; ok != want {
						t.Fatalf("update(%d) = %v, oracle %v", k, ok, want)
					}
					if ok {
						oracle[k] = v
					}
				}
			}
			if tr.Len() != len(oracle) {
				t.Fatalf("Len = %d, oracle %d", tr.Len(), len(oracle))
			}
			// Full scan must equal the sorted oracle.
			got := tr.ScanN(0, len(oracle)+10)
			if len(got) != len(oracle) {
				t.Fatalf("scan %d entries, oracle %d", len(got), len(oracle))
			}
			for _, kv := range got {
				if oracle[kv.Key] != kv.Value {
					t.Fatalf("scan kv %v disagrees with oracle %d", kv, oracle[kv.Key])
				}
			}
			return tr.CheckInvariants() == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuickRecoveryEquivalence: after any batch of ops, crash+recover must
// preserve exactly the acknowledged state.
func TestQuickRecoveryEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := newPool(32)
		tr, err := Create(pool, Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		oracle := map[uint64]uint64{}
		for i := 0; i < 600; i++ {
			k := rng.Uint64()%200 + 1
			if rng.Intn(3) == 0 {
				if _, err := tr.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(oracle, k)
			} else {
				v := rng.Uint64()
				if err := tr.Upsert(k, v); err != nil {
					t.Fatal(err)
				}
				oracle[k] = v
			}
		}
		pool.Crash()
		tr2, err := Open(pool)
		if err != nil {
			t.Fatal(err)
		}
		if tr2.Len() != len(oracle) {
			t.Fatalf("recovered Len = %d, oracle %d", tr2.Len(), len(oracle))
		}
		for k, v := range oracle {
			got, ok := tr2.Find(k)
			if !ok || got != v {
				t.Fatalf("recovered find(%d) = %d,%v want %d", k, got, ok, v)
			}
		}
		return tr2.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// avgProbes runs fn and returns the in-leaf key probes per search it cost,
// read as deltas of the tree's shared counters.
func avgProbes(ops *OpStats, fn func()) float64 {
	searches, probes := ops.Searches.Load(), ops.KeyProbes.Load()
	fn()
	return float64(ops.KeyProbes.Load()-probes) / float64(ops.Searches.Load()-searches)
}

func TestProbeStatsNearOne(t *testing.T) {
	// The Figure 4 claim: with m=56 entries and 256 fingerprint values, a
	// successful search probes ~1.1 keys on average.
	tr := newTree(t, Config{LeafCap: 56, InnerFanout: 64, GroupSize: 8})
	rng := rand.New(rand.NewSource(21))
	keys := make([]uint64, 0, 20000)
	for i := 0; i < 20000; i++ {
		k := rng.Uint64() | 1
		keys = append(keys, k)
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	avg := avgProbes(&tr.Ops, func() {
		for _, k := range keys {
			if _, ok := tr.Find(k); !ok {
				t.Fatalf("key %d missing", k)
			}
		}
	})
	if avg < 1.0 || avg > 1.35 {
		t.Fatalf("avg in-leaf probes = %.3f, want ≈1.1", avg)
	}
}

func TestMemoryStatsDRAMSmallFraction(t *testing.T) {
	// Selective Persistence: the DRAM share of the tree must be a small
	// fraction of the total (paper: <3% at leaf 56 / inner 4096; relaxed
	// bounds here for small scale).
	tr := newTree(t, Config{LeafCap: 56, InnerFanout: 128, GroupSize: 8})
	for i := uint64(1); i <= 100000; i++ {
		if err := tr.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.Memory()
	if st.Leaves == 0 || st.Inners == 0 {
		t.Fatal("memory stats missing nodes")
	}
	frac := float64(st.DRAMBytes) / float64(st.DRAMBytes+st.SCMBytes)
	if frac > 0.10 {
		t.Fatalf("DRAM fraction %.2f%% too high", frac*100)
	}
}

func TestSaveLoadTree(t *testing.T) {
	dir := t.TempDir()
	pool := newPool(32)
	tr, err := Create(pool, Config{LeafCap: 8, GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 500; i++ {
		if err := tr.Insert(i, i*2); err != nil {
			t.Fatal(err)
		}
	}
	path := dir + "/tree.img"
	if err := pool.Save(path); err != nil {
		t.Fatal(err)
	}
	pool2, err := scm.Load(path, scm.LatencyConfig{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(pool2)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 500; i++ {
		v, ok := tr2.Find(i)
		if !ok || v != i*2 {
			t.Fatalf("Find(%d) after reload = %d,%v", i, v, ok)
		}
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsWrongKind(t *testing.T) {
	pool := newPool(8)
	if _, err := Open(pool); err == nil {
		t.Fatal("Open on empty pool should fail")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{LeafCap: 1},
		{LeafCap: 65},
		{LeafCap: 8, InnerFanout: 1},
		{LeafCap: 8, GroupSize: -1},
		{LeafCap: 8, ValueSize: -2},
	}
	for i, cfg := range bad {
		if _, err := Create(newPool(8), cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}
