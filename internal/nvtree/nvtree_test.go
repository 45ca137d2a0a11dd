package nvtree

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"fptree/internal/crashtest"
	"fptree/internal/scm"
)

func newPool() *scm.Pool {
	return scm.NewPool(256<<20, scm.LatencyConfig{CacheBytes: -1})
}

func newTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := New(newPool(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestEmpty(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 8, InnerCap: 4})
	if _, ok := tr.Find(1); ok {
		t.Fatal("find on empty")
	}
	if ok, _ := tr.Delete(1); ok {
		t.Fatal("delete on empty")
	}
}

func TestInsertFindRandom(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 8, InnerCap: 8})
	rng := rand.New(rand.NewSource(1))
	const n = 4000
	for _, k := range rng.Perm(n) {
		if err := tr.Insert(uint64(k)+1, uint64(k)*3); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	for k := 1; k <= n; k++ {
		v, ok := tr.Find(uint64(k))
		if !ok || v != uint64(k-1)*3 {
			t.Fatalf("find(%d) = %d,%v", k, v, ok)
		}
	}
	if tr.Rebuilds() == 0 {
		t.Fatal("expected at least one inner rebuild with InnerCap 8")
	}
}

func TestAppendSemantics(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 16, InnerCap: 8})
	if err := tr.Insert(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(5, 2); err != nil { // update by re-insert
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if v, _ := tr.Find(5); v != 2 {
		t.Fatalf("latest value = %d", v)
	}
	if ok, _ := tr.Delete(5); !ok {
		t.Fatal("delete failed")
	}
	if _, ok := tr.Find(5); ok {
		t.Fatal("tombstone not honored")
	}
	if ok, _ := tr.Delete(5); ok {
		t.Fatal("double delete reported true")
	}
	// Re-insert after delete.
	if err := tr.Insert(5, 3); err != nil {
		t.Fatal(err)
	}
	if v, _ := tr.Find(5); v != 3 {
		t.Fatalf("after re-insert = %d", v)
	}
}

func TestDeleteHeavyTriggersCompaction(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 8, InnerCap: 8})
	// Insert/delete cycles in one key range force splits on logs full of
	// tombstones, hitting the compaction and drop-leaf paths.
	for round := 0; round < 20; round++ {
		for k := uint64(1); k <= 50; k++ {
			if err := tr.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(1); k <= 50; k++ {
			if ok, _ := tr.Delete(k); !ok {
				t.Fatalf("round %d: delete(%d) failed", round, k)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for k := uint64(1); k <= 50; k++ {
		if _, ok := tr.Find(k); ok {
			t.Fatalf("key %d resurrected", k)
		}
	}
}

func TestScan(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 8, InnerCap: 8})
	rng := rand.New(rand.NewSource(3))
	for _, k := range rng.Perm(1000) {
		if err := tr.Insert(uint64(k)*2+2, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	tr.Scan(100, func(k, v uint64) bool {
		got = append(got, k)
		return len(got) < 100
	})
	want := uint64(100)
	for i, k := range got {
		if k != want {
			t.Fatalf("scan[%d] = %d want %d", i, k, want)
		}
		want += 2
	}
}

// TestOpenKeepsInnerCap checks that a reopened tree rebuilds its leaf
// parents with the InnerCap it was created with, which the metadata block
// records, and that a block written before the word was recorded (zero)
// opens with the default of 128.
func TestOpenKeepsInnerCap(t *testing.T) {
	pool := scm.NewPool(4<<20, scm.LatencyConfig{CacheBytes: -1})
	tr, err := New(pool, Config{LeafCap: 8, InnerCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 200; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []int{8, 128} {
		if want == 128 {
			pool.WriteU64(tr.meta+mOffInnerCap, 0)
			pool.Persist(tr.meta+mOffInnerCap, 8)
		}
		pool.Crash()
		if tr, err = Open(pool); err != nil {
			t.Fatal(err)
		}
		if tr.plnCap != want {
			t.Fatalf("reopened with InnerCap %d, want %d", tr.plnCap, want)
		}
	}
	if v, ok := tr.Find(200); !ok || v != 200 {
		t.Fatalf("Find(200) = %d, %v", v, ok)
	}
}

func TestRecovery(t *testing.T) {
	pool := newPool()
	tr, err := New(pool, Config{LeafCap: 8, InnerCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for k := uint64(1); k <= n; k++ {
		if err := tr.Insert(k, k+9); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= n; k += 3 {
		if _, err := tr.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	pool.Crash()
	tr2, err := Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= n; k++ {
		v, ok := tr2.Find(k)
		if k%3 == 1 {
			if ok {
				t.Fatalf("deleted %d resurrected", k)
			}
		} else if !ok || v != k+9 {
			t.Fatalf("find(%d) = %d,%v", k, v, ok)
		}
	}
	if tr2.DRAMBytes() == 0 {
		t.Fatal("DRAM accounting empty")
	}
}

func TestCrashAtEveryFlush(t *testing.T) {
	pool := newPool()
	tr, err := New(pool, Config{LeafCap: 8, InnerCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	acked := map[uint64]uint64{}
	for k := uint64(1); k <= 300; k++ {
		if err := tr.Insert(k*5, k); err != nil {
			t.Fatal(err)
		}
		acked[k*5] = k
	}
	rng := rand.New(rand.NewSource(7))
	step := int64(1)
	for op := 0; op < 150; op++ {
		k := rng.Uint64()%100000 + 2
		if _, dup := acked[k]; dup {
			continue
		}
		pool.FailAfterFlushes(step)
		crashed, opErr := crashtest.Crashes(func() error {
			return tr.Insert(k, k+1)
		})
		pool.FailAfterFlushes(-1)
		if opErr != nil {
			t.Fatal(opErr)
		}
		if !crashed {
			acked[k] = k + 1
			step = 1
			continue
		}
		step++
		pool.Crash()
		tr, err = Open(pool)
		if err != nil {
			t.Fatalf("op %d step %d: %v", op, step, err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("op %d step %d: %v", op, step, err)
		}
		for ak, av := range acked {
			got, ok := tr.Find(ak)
			if !ok || got != av {
				t.Fatalf("op %d step %d: acked %d = %d,%v want %d", op, step, ak, got, ok, av)
			}
		}
		op--
	}
}

func TestQuickOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := New(newPool(), Config{LeafCap: 8, InnerCap: 4})
		if err != nil {
			t.Fatal(err)
		}
		oracle := map[uint64]uint64{}
		for i := 0; i < 800; i++ {
			k := rng.Uint64()%200 + 1
			switch rng.Intn(3) {
			case 0:
				v := rng.Uint64()
				if err := tr.Insert(k, v); err != nil {
					t.Fatal(err)
				}
				oracle[k] = v
			case 1:
				ok, _ := tr.Delete(k)
				if _, want := oracle[k]; ok != want {
					t.Fatalf("delete(%d) = %v want %v", k, ok, want)
				}
				delete(oracle, k)
			case 2:
				v, ok := tr.Find(k)
				want, wok := oracle[k]
				if ok != wok || (ok && v != want) {
					t.Fatalf("find(%d) = %d,%v want %d,%v", k, v, ok, want, wok)
				}
			}
		}
		return tr.Len() == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestVarTree(t *testing.T) {
	pool := newPool()
	tr, err := NewVar(pool, Config{LeafCap: 8, InnerCap: 8, ValueSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
	for i := 0; i < 1500; i++ {
		if err := tr.Insert(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1500; i += 2 {
		if ok, _ := tr.Delete(key(i)); !ok {
			t.Fatalf("delete %d failed", i)
		}
	}
	pool.Crash()
	tr2, err := OpenVar(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		v, ok := tr2.Find(key(i))
		if i%2 == 0 {
			if ok {
				t.Fatalf("deleted %d present", i)
			}
		} else if !ok || string(v[:10]) != string(key(i)[:10]) {
			t.Fatalf("find(%d) = %q,%v", i, v, ok)
		}
	}
}

// TestWrongModeOpenFails pins the key-kind refusal: the key-mode word of the
// metadata block is the only durable record of the key kind, and opening an
// image as the other kind, through either facade, must fail.
func TestWrongModeOpenFails(t *testing.T) {
	fixed, vari := newPool(), newPool()
	if _, err := New(fixed, Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewVar(vari, Config{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		open func() error
	}{
		{"fixed image via OpenVar", func() error { _, err := OpenVar(fixed); return err }},
		{"fixed image via COpenVar", func() error { _, err := COpenVar(fixed); return err }},
		{"var image via Open", func() error { _, err := Open(vari); return err }},
		{"var image via COpen", func() error { _, err := COpen(vari); return err }},
	} {
		if err := tc.open(); err == nil || !strings.Contains(err.Error(), "key mode mismatch") {
			t.Errorf("%s: %v, want a key mode mismatch", tc.name, err)
		}
	}
}

func TestProbesLinear(t *testing.T) {
	// Reverse linear scan: ~(fill+1)/2 probes per successful search.
	tr := newTree(t, Config{LeafCap: 32, InnerCap: 64})
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 0, 10000)
	for i := 0; i < 10000; i++ {
		k := rng.Uint64()>>1 + 1
		keys = append(keys, k)
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	tr.Searches.Store(0)
	tr.KeyProbes.Store(0)
	for _, k := range keys {
		if _, ok := tr.Find(k); !ok {
			t.Fatal("missing")
		}
	}
	avg := float64(tr.KeyProbes.Load()) / float64(tr.Searches.Load())
	if avg < 3 {
		t.Fatalf("avg probes %.2f: too low for a linear scan", avg)
	}
}

func TestConcurrentStripes(t *testing.T) {
	ct, err := CNew(newPool(), Config{LeafCap: 16, InnerCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			oracle := map[uint64]uint64{}
			base := uint64(w) << 32
			for i := 0; i < 1500; i++ {
				k := base + rng.Uint64()%400 + 1
				switch rng.Intn(3) {
				case 0:
					v := rng.Uint64()
					if err := ct.Insert(k, v); err != nil {
						t.Error(err)
						return
					}
					oracle[k] = v
				case 1:
					ok, _ := ct.Delete(k)
					if _, want := oracle[k]; ok != want {
						t.Errorf("delete(%d) = %v want %v", k, ok, want)
						return
					}
					delete(oracle, k)
				case 2:
					v, ok := ct.Find(k)
					want, wok := oracle[k]
					if ok != wok || (ok && v != want) {
						t.Errorf("find(%d) = %d,%v want %d,%v", k, v, ok, want, wok)
						return
					}
				}
			}
			for k, v := range oracle {
				got, ok := ct.Find(k)
				if !ok || got != v {
					t.Errorf("final find(%d) = %d,%v want %d", k, got, ok, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentRecovery(t *testing.T) {
	pool := newPool()
	ct, err := CNew(pool, Config{LeafCap: 16, InnerCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := uint64(w*1000+i) + 1
				if err := ct.Insert(k, k); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	pool.Crash()
	ct2, err := COpen(pool)
	if err != nil {
		t.Fatal(err)
	}
	if ct2.Len() != 4000 {
		t.Fatalf("recovered Len = %d", ct2.Len())
	}
	for k := uint64(1); k <= 4000; k++ {
		if v, ok := ct2.Find(k); !ok || v != k {
			t.Fatalf("find(%d) = %d,%v", k, v, ok)
		}
	}
}

// TestConcurrentCheckInvariantsLive pins the size the concurrent facades
// check against: they count in their own atomic, so CheckInvariants on a
// tree that has taken writes (not only on a just-recovered one) must compare
// that count, not the base's untouched one, with the live entries.
func TestConcurrentCheckInvariantsLive(t *testing.T) {
	pool := scm.NewPool(16<<20, scm.LatencyConfig{CacheBytes: -1})
	ct, err := CNewVar(pool, Config{LeafCap: 16, InnerCap: 16, ValueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := ct.Upsert([]byte(fmt.Sprintf("k%03d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if found, err := ct.Delete([]byte(fmt.Sprintf("k%03d", i))); err != nil || !found {
			t.Fatalf("delete k%03d = %v,%v", i, found, err)
		}
	}
	if err := ct.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ct.Len() != 150 {
		t.Fatalf("Len = %d, want 150", ct.Len())
	}
}
