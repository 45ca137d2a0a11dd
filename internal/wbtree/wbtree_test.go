package wbtree

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fptree/internal/crashtest"
	"fptree/internal/scm"
)

func newPool() *scm.Pool {
	return scm.NewPool(64<<20, scm.LatencyConfig{CacheBytes: -1})
}

func newTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := New(newPool(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

var cfgs = []struct {
	name string
	cfg  Config
}{
	{"small", Config{InnerCap: 4, LeafCap: 4}},
	{"default", Config{}},
	{"leaf63", Config{InnerCap: 32, LeafCap: 63}},
}

func TestEmpty(t *testing.T) {
	tr := newTree(t, Config{})
	if _, ok := tr.Find(1); ok {
		t.Fatal("find on empty")
	}
	if ok, _ := tr.Delete(1); ok {
		t.Fatal("delete on empty")
	}
	if ok, _ := tr.Update(1, 2); ok {
		t.Fatal("update on empty")
	}
}

func TestInsertFind(t *testing.T) {
	for _, tc := range cfgs {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTree(t, tc.cfg)
			rng := rand.New(rand.NewSource(1))
			const n = 5000
			for _, k := range rng.Perm(n) {
				if err := tr.Insert(uint64(k)+1, uint64(k)*3); err != nil {
					t.Fatal(err)
				}
			}
			for k := 1; k <= n; k++ {
				v, ok := tr.Find(uint64(k))
				if !ok || v != uint64(k-1)*3 {
					t.Fatalf("find(%d) = %d,%v", k, v, ok)
				}
			}
			if tr.Len() != n {
				t.Fatalf("Len = %d", tr.Len())
			}
		})
	}
}

func TestSequentialInsert(t *testing.T) {
	// Sequential keys stress the rightmost-spine infinity separator.
	tr := newTree(t, Config{InnerCap: 4, LeafCap: 4})
	for k := uint64(1); k <= 2000; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 2000; k++ {
		if v, ok := tr.Find(k); !ok || v != k {
			t.Fatalf("find(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestUpdateDelete(t *testing.T) {
	tr := newTree(t, Config{InnerCap: 4, LeafCap: 4})
	const n = 2000
	for k := uint64(1); k <= n; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= n; k += 2 {
		if ok, _ := tr.Update(k, k+1000); !ok {
			t.Fatalf("update(%d) failed", k)
		}
	}
	for k := uint64(1); k <= n; k += 4 {
		if ok, _ := tr.Delete(k); !ok {
			t.Fatalf("delete(%d) failed", k)
		}
	}
	for k := uint64(1); k <= n; k++ {
		v, ok := tr.Find(k)
		switch {
		case k%4 == 1:
			if ok {
				t.Fatalf("deleted %d present", k)
			}
		case k%2 == 1:
			if !ok || v != k+1000 {
				t.Fatalf("updated find(%d) = %d,%v", k, v, ok)
			}
		default:
			if !ok || v != k {
				t.Fatalf("find(%d) = %d,%v", k, v, ok)
			}
		}
	}
}

func TestDeleteAllReuse(t *testing.T) {
	tr := newTree(t, Config{InnerCap: 4, LeafCap: 4})
	for round := 0; round < 3; round++ {
		for k := uint64(1); k <= 500; k++ {
			if err := tr.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(1); k <= 500; k++ {
			if ok, _ := tr.Delete(k); !ok {
				t.Fatalf("round %d: delete(%d) failed", round, k)
			}
		}
		if tr.Len() != 0 {
			t.Fatalf("round %d: Len = %d", round, tr.Len())
		}
	}
}

func TestScan(t *testing.T) {
	tr := newTree(t, Config{InnerCap: 4, LeafCap: 4})
	rng := rand.New(rand.NewSource(4))
	for _, k := range rng.Perm(1000) {
		if err := tr.Insert(uint64(k)*2+2, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	tr.Scan(100, func(k, v uint64) bool {
		got = append(got, k)
		return len(got) < 200
	})
	if len(got) != 200 {
		t.Fatalf("scan %d entries", len(got))
	}
	want := uint64(100)
	for i, k := range got {
		if k != want {
			t.Fatalf("scan[%d] = %d want %d", i, k, want)
		}
		want += 2
	}
}

func TestRecoveryCleanRestart(t *testing.T) {
	pool := newPool()
	tr, err := New(pool, Config{InnerCap: 8, LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for k := uint64(1); k <= n; k++ {
		if err := tr.Insert(k, k^0xff); err != nil {
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
	if tr2.Len() != n-(n+2)/3 {
		t.Fatalf("recovered Len = %d", tr2.Len())
	}
	for k := uint64(1); k <= n; k++ {
		v, ok := tr2.Find(k)
		if k%3 == 1 {
			if ok {
				t.Fatalf("deleted %d resurrected", k)
			}
		} else if !ok || v != k^0xff {
			t.Fatalf("find(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestCrashAtEveryFlush(t *testing.T) {
	pool := newPool()
	tr, err := New(pool, Config{InnerCap: 4, LeafCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	acked := map[uint64]uint64{}
	for k := uint64(1); k <= 200; k++ {
		if err := tr.Insert(k*7, k); err != nil {
			t.Fatal(err)
		}
		acked[k*7] = k
	}
	rng := rand.New(rand.NewSource(9))
	step := int64(1)
	for op := 0; op < 150; op++ {
		k := rng.Uint64()%100000 + 1
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
				t.Fatalf("op %d step %d: acked key %d = %d,%v want %d", op, step, ak, got, ok, av)
			}
		}
		if got, ok := tr.Find(k); ok && got != k+1 {
			t.Fatalf("op %d step %d: torn in-flight value", op, step)
		}
		op--
	}
}

func TestCrashDuringDeletes(t *testing.T) {
	pool := newPool()
	tr, err := New(pool, Config{InnerCap: 4, LeafCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	live := map[uint64]bool{}
	for k := uint64(1); k <= 500; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
		live[k] = true
	}
	step := int64(1)
	for op := 0; op < 150 && len(live) > 0; op++ {
		var key uint64
		for k := range live {
			key = k
			break
		}
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
		for k := range live {
			if k == key {
				continue
			}
			if _, ok := tr.Find(k); !ok {
				t.Fatalf("op %d step %d: live key %d lost", op, step, k)
			}
		}
		if _, ok := tr.Find(key); !ok {
			delete(live, key) // delete rolled forward
		}
		op--
	}
}

func TestQuickOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := New(newPool(), Config{InnerCap: 4, LeafCap: 4})
		if err != nil {
			t.Fatal(err)
		}
		oracle := map[uint64]uint64{}
		for i := 0; i < 1200; i++ {
			k := rng.Uint64()%300 + 1
			switch rng.Intn(3) {
			case 0:
				v := rng.Uint64()
				if err := tr.Upsert(k, v); err != nil {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestVarTreeBasics(t *testing.T) {
	pool := newPool()
	tr, err := NewVar(pool, Config{InnerCap: 8, LeafCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
	const n = 2000
	rng := rand.New(rand.NewSource(2))
	for _, i := range rng.Perm(n) {
		if err := tr.Insert(key(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Find(key(i))
		if !ok || v != uint64(i) {
			t.Fatalf("find(%d) = %d,%v", i, v, ok)
		}
	}
	for i := 0; i < n; i += 2 {
		if ok, _ := tr.Delete(key(i)); !ok {
			t.Fatalf("delete(%d) failed", i)
		}
	}
	pool.Crash()
	tr2, err := OpenVar(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, ok := tr2.Find(key(i))
		if (i%2 == 0) == ok {
			t.Fatalf("key %d presence %v after recovery", i, ok)
		}
	}
	var got [][]byte
	tr2.Scan(key(101), func(k []byte, v uint64) bool {
		got = append(got, append([]byte(nil), k...))
		return len(got) < 10
	})
	if len(got) != 10 || string(got[0]) != string(key(101)) {
		t.Fatalf("scan start = %q (%d entries)", got[0], len(got))
	}
}

func TestProbesLogarithmic(t *testing.T) {
	// The wBTree's sorted slot arrays give log2(m) in-leaf probes (Figure 4).
	tr := newTree(t, Config{InnerCap: 32, LeafCap: 63})
	rng := rand.New(rand.NewSource(6))
	keys := make([]uint64, 0, 20000)
	for i := 0; i < 20000; i++ {
		k := rng.Uint64()>>1 | 1
		keys = append(keys, k)
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	tr.Searches.Store(0)
	tr.KeyProbes.Store(0)
	for _, k := range keys {
		if _, ok := tr.Find(k); !ok {
			t.Fatal("missing key")
		}
	}
	// Probes counted across all levels; per successful lookup with leaf 63
	// and two or three inner levels, expect roughly 3*log2(63) ≈ 12-20,
	// clearly logarithmic rather than linear (≈32 for the leaf alone).
	avg := float64(tr.KeyProbes.Load()) / float64(tr.Searches.Load())
	if avg > 25 {
		t.Fatalf("avg probes/search = %.1f, not logarithmic", avg)
	}
}

func TestWrongModeOpenFails(t *testing.T) {
	pool := newPool()
	if _, err := New(pool, Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenVar(pool); err == nil {
		t.Fatal("OpenVar accepted fixed-mode arena")
	}
}
