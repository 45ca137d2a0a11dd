package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fptree/internal/scm"
)

func newCTree(t *testing.T, cfg Config) *CTree {
	t.Helper()
	tr, err := CCreate(newPool(128), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

var cConfigs = []struct {
	name string
	cfg  Config
}{
	{"leaf8-fanout4", Config{LeafCap: 8, InnerFanout: 4, NumLogs: 8}},
	{"leaf64-fanout128", Config{LeafCap: 64, InnerFanout: 128}},
	{"leaf4-fanout2", Config{LeafCap: 4, InnerFanout: 2, NumLogs: 4}},
}

func TestCTreeSingleThreadBasics(t *testing.T) {
	for _, tc := range cConfigs {
		t.Run(tc.name, func(t *testing.T) {
			tr := newCTree(t, tc.cfg)
			if _, ok := tr.Find(1); ok {
				t.Fatal("find on empty")
			}
			const n = 3000
			rng := rand.New(rand.NewSource(1))
			for _, k := range rng.Perm(n) {
				if err := tr.Insert(uint64(k)+1, uint64(k)*2); err != nil {
					t.Fatal(err)
				}
			}
			for k := 1; k <= n; k++ {
				v, ok := tr.Find(uint64(k))
				if !ok || v != uint64(k-1)*2 {
					t.Fatalf("find(%d) = %d,%v", k, v, ok)
				}
			}
			if tr.Len() != n {
				t.Fatalf("Len = %d", tr.Len())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Updates.
			for k := 1; k <= n; k += 2 {
				ok, err := tr.Update(uint64(k), 999)
				if err != nil || !ok {
					t.Fatalf("update(%d): %v %v", k, ok, err)
				}
			}
			for k := 1; k <= n; k += 2 {
				if v, _ := tr.Find(uint64(k)); v != 999 {
					t.Fatalf("after update find(%d) = %d", k, v)
				}
			}
			// Deletes.
			for k := 1; k <= n; k++ {
				ok, err := tr.Delete(uint64(k))
				if err != nil || !ok {
					t.Fatalf("delete(%d): %v %v", k, ok, err)
				}
			}
			if tr.Len() != 0 {
				t.Fatalf("Len = %d after delete-all", tr.Len())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Reusable after emptying.
			if err := tr.Insert(5, 6); err != nil {
				t.Fatal(err)
			}
			if v, ok := tr.Find(5); !ok || v != 6 {
				t.Fatal("insert after emptying failed")
			}
		})
	}
}

func TestCTreeScan(t *testing.T) {
	tr := newCTree(t, Config{LeafCap: 8, InnerFanout: 4})
	for i := uint64(1); i <= 1000; i++ {
		if err := tr.Insert(i*2, i); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.ScanN(100, 200)
	if len(got) != 200 {
		t.Fatalf("scan returned %d", len(got))
	}
	want := uint64(100)
	for i, kv := range got {
		if kv.Key != want {
			t.Fatalf("scan[%d] = %d want %d", i, kv.Key, want)
		}
		want += 2
	}
	if n := len(tr.ScanN(3000, 10)); n != 0 {
		t.Fatalf("scan past end returned %d", n)
	}
}

func TestCTreeConcurrentInserts(t *testing.T) {
	for _, tc := range cConfigs {
		t.Run(tc.name, func(t *testing.T) {
			tr := newCTree(t, tc.cfg)
			const (
				workers = 8
				perW    = 2000
			)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perW; i++ {
						k := uint64(w*perW+i) + 1
						if err := tr.Insert(k, k*3); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if tr.Len() != workers*perW {
				t.Fatalf("Len = %d, want %d", tr.Len(), workers*perW)
			}
			for k := uint64(1); k <= workers*perW; k++ {
				v, ok := tr.Find(k)
				if !ok || v != k*3 {
					t.Fatalf("find(%d) = %d,%v", k, v, ok)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCTreeConcurrentMixed(t *testing.T) {
	// Each worker owns a disjoint key stripe; within a stripe operations are
	// sequential, so every read has a deterministic expected answer even
	// under full concurrency across stripes.
	tr := newCTree(t, Config{LeafCap: 8, InnerFanout: 4, NumLogs: 8})
	const (
		workers = 8
		stripe  = 1 << 20
		ops     = 4000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			oracle := map[uint64]uint64{}
			base := uint64(w * stripe)
			for i := 0; i < ops; i++ {
				k := base + rng.Uint64()%500 + 1
				switch rng.Intn(4) {
				case 0:
					v := rng.Uint64()
					if err := tr.Upsert(k, v); err != nil {
						t.Error(err)
						return
					}
					oracle[k] = v
				case 1:
					ok, err := tr.Delete(k)
					if err != nil {
						t.Error(err)
						return
					}
					if _, want := oracle[k]; ok != want {
						t.Errorf("delete(%d) = %v, want %v", k, ok, want)
						return
					}
					delete(oracle, k)
				case 2:
					v, ok := tr.Find(k)
					want, wok := oracle[k]
					if ok != wok || (ok && v != want) {
						t.Errorf("find(%d) = %d,%v want %d,%v", k, v, ok, want, wok)
						return
					}
				case 3:
					v := rng.Uint64()
					ok, err := tr.Update(k, v)
					if err != nil {
						t.Error(err)
						return
					}
					if _, want := oracle[k]; ok != want {
						t.Errorf("update(%d) = %v, want %v", k, ok, want)
						return
					}
					if ok {
						oracle[k] = v
					}
				}
			}
			// Final per-stripe verification.
			for k, v := range oracle {
				got, ok := tr.Find(k)
				if !ok || got != v {
					t.Errorf("final find(%d) = %d,%v want %d", k, got, ok, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCTreeConcurrentScanWhileWriting(t *testing.T) {
	tr := newCTree(t, Config{LeafCap: 8, InnerFanout: 4, NumLogs: 8})
	for i := uint64(1); i <= 2000; i++ {
		if err := tr.Insert(i*10, i); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer churns a disjoint upper range
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := 100000 + rng.Uint64()%1000
			switch rng.Intn(2) {
			case 0:
				tr.Upsert(k, k) //nolint:errcheck
			case 1:
				tr.Delete(k) //nolint:errcheck
			}
		}
	}()
	// Scans over the stable lower range must always see exactly its keys.
	for round := 0; round < 50; round++ {
		got := tr.ScanN(10, 100)
		if len(got) != 100 {
			t.Fatalf("scan %d entries", len(got))
		}
		for i, kv := range got {
			if kv.Key != uint64(i+1)*10 {
				t.Fatalf("scan[%d] = %d", i, kv.Key)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestCTreeDeferredEmptyLeafIsReused(t *testing.T) {
	// Force the leftmost-in-parent deferred-delete path: build two parents,
	// empty a leaf that is leftmost in the second parent, then insert into
	// its range again.
	tr := newCTree(t, Config{LeafCap: 2, InnerFanout: 2, NumLogs: 4})
	for k := uint64(1); k <= 40; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 40; k++ {
		if ok, err := tr.Delete(k); err != nil || !ok {
			t.Fatalf("delete(%d): %v %v", k, ok, err)
		}
	}
	for k := uint64(1); k <= 40; k++ {
		if err := tr.Insert(k, k+7); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 40; k++ {
		if v, ok := tr.Find(k); !ok || v != k+7 {
			t.Fatalf("find(%d) = %d,%v", k, v, ok)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCTreeRecovery(t *testing.T) {
	pool := newPool(128)
	tr, err := CCreate(pool, Config{LeafCap: 8, InnerFanout: 4, NumLogs: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := uint64(w*2000+i) + 1
				if err := tr.Insert(k, k); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := uint64(1); k <= 8000; k += 2 {
		if _, err := tr.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	pool.Crash()
	tr2, err := COpen(pool)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 8000; k++ {
		v, ok := tr2.Find(k)
		if k%2 == 1 {
			if ok {
				t.Fatalf("deleted key %d resurrected", k)
			}
		} else if !ok || v != k {
			t.Fatalf("find(%d) = %d,%v after recovery", k, v, ok)
		}
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCTreeCrashDuringConcurrentInserts(t *testing.T) {
	// Crash injection under concurrency: the injected panic fires in one
	// worker; all workers stop, the pool crashes, recovery must produce a
	// consistent tree containing every key acknowledged before the crash.
	pool := newPool(128)
	tr, err := CCreate(pool, Config{LeafCap: 4, InnerFanout: 4, NumLogs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 500; i++ {
		if err := tr.Insert(i*2, i); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 25; trial++ {
		var acked sync.Map
		pool.FailAfterFlushes(int64(trial*7 + 3))
		var wg sync.WaitGroup
		var crashed atomic.Bool
		for w := 0; w < 4; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						if r != scm.ErrInjectedCrash {
							panic(r)
						}
						crashed.Store(true)
					}
				}()
				for i := 0; i < 300; i++ {
					if crashed.Load() {
						return
					}
					k := uint64(1_000_000 + trial*100000 + w*10000 + i)
					if err := tr.Insert(k, k); err != nil {
						t.Error(err)
						return
					}
					acked.Store(k, true)
				}
			}()
		}
		wg.Wait()
		pool.FailAfterFlushes(-1)
		pool.Crash()
		tr2, err := COpen(pool)
		if err != nil {
			t.Fatalf("trial %d: recovery: %v", trial, err)
		}
		if err := tr2.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		missing := 0
		acked.Range(func(k, _ any) bool {
			if _, ok := tr2.Find(k.(uint64)); !ok {
				missing++
			}
			return true
		})
		// Workers may have been acknowledged-but-unflushed at most for the
		// operation racing the crash; one in-flight op per worker may be
		// counted as acked by the test after its bitmap flush was the crash
		// trigger itself. Everything else must be durable.
		if missing > 4 {
			t.Fatalf("trial %d: %d acked keys missing after crash", trial, missing)
		}
		tr = tr2
	}
}

func TestCTreeStatsCountAborts(t *testing.T) {
	tr := newCTree(t, Config{LeafCap: 4, InnerFanout: 2, NumLogs: 8})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				k := uint64(i%97) + uint64(w) // heavy same-leaf contention
				tr.Upsert(k, k)               //nolint:errcheck
			}
		}()
	}
	wg.Wait()
	// With four workers hammering 100 keys, some aborts must occur.
	if tr.Stats.Aborts.Load() == 0 {
		t.Log("no aborts observed (acceptable on a single-core machine)")
	}
	// Keys i%97 + w for w < 4 are exactly 0..99, however the storm interleaved.
	if got := tr.Len(); got != 100 {
		t.Fatalf("Len = %d after upserting keys 0..99, want 100", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentUpsertSameNewKeys: two goroutines upsert the same fresh keys
// in the same order, so they race on every key's first insert. Upsert must
// decide "absent" and insert under one hold of the leaf lock; otherwise both
// racers miss, both insert, and the key is stored twice — Len overshoots, a
// delete leaves the other copy live, and a split beside the duplicate breaks
// the leaf order.
func TestConcurrentUpsertSameNewKeys(t *testing.T) {
	const n = 20000
	cfg := Config{LeafCap: 16, InnerFanout: 8}
	race := func(t *testing.T, tr interface {
		Len() int
		CheckInvariants() error
	}, upsert func(i int) error) {
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if err := upsert(i); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if got := tr.Len(); got != n {
			t.Errorf("Len = %d after upserting %d distinct keys from two goroutines", got, n)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
	t.Run("fixed", func(t *testing.T) {
		tr := newCTree(t, cfg)
		race(t, tr, func(i int) error { return tr.Upsert(uint64(i), uint64(i)) })
	})
	t.Run("var", func(t *testing.T) {
		tr := newCVarTree(t, Config{LeafCap: cfg.LeafCap, InnerFanout: cfg.InnerFanout, ValueSize: 8})
		race(t, tr, func(i int) error { return tr.Upsert(strKey(i), val8(uint64(i))) })
	})
}
