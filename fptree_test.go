package fptree

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fptree/internal/scm"
)

func TestPublicAPITree(t *testing.T) {
	tree, err := Create(Options{PoolSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 5000; k++ {
		if err := tree.Insert(k, k*2); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Len() != 5000 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if v, ok := tree.Find(77); !ok || v != 154 {
		t.Fatalf("Find = %d,%v", v, ok)
	}
	if ok, _ := tree.Update(77, 1); !ok {
		t.Fatal("update failed")
	}
	if ok, _ := tree.Delete(78); !ok {
		t.Fatal("delete failed")
	}
	if err := tree.Upsert(78, 5); err != nil {
		t.Fatal(err)
	}
	kvs := tree.ScanN(100, 10)
	if len(kvs) != 10 || kvs[0].Key != 100 {
		t.Fatalf("scan = %v", kvs)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISaveLoad(t *testing.T) {
	tree, err := Create(Options{PoolSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 1000; k++ {
		tree.Insert(k, k) //nolint:errcheck
	}
	path := filepath.Join(t.TempDir(), "t.img")
	if err := tree.Save(path); err != nil {
		t.Fatal(err)
	}
	re, err := Load(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1000 {
		t.Fatalf("reloaded Len = %d", re.Len())
	}
}

func TestPublicAPICrashRecover(t *testing.T) {
	tree, err := Create(Options{PoolSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 2000; k++ {
		tree.Insert(k, k) //nolint:errcheck
	}
	tree.Pool().Crash()
	if err := tree.Recover(); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 2000 {
		t.Fatalf("Len after recovery = %d", tree.Len())
	}
}

func TestPublicAPIConcurrent(t *testing.T) {
	tree, err := CreateConcurrent(Options{PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 2000; i++ {
				k := uint64(w)*2000 + i + 1
				if err := tree.Insert(k, k); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if tree.Len() != 8000 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tree.Pool().Crash()
	if err := tree.Recover(); err != nil {
		t.Fatal(err)
	}
	if v, ok := tree.Find(5); !ok || v != 5 {
		t.Fatalf("after recovery Find(5) = %d,%v", v, ok)
	}
	// Recover reopens with the tree's own controller: a concurrent tree
	// keeps its retry budget and fallback lock.
	if tree.Controller() == nil {
		t.Fatal("the recovered concurrent tree has no controller")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIVar(t *testing.T) {
	tree, err := CreateVar(Options{PoolSize: 64 << 20, ValueSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		k := []byte(fmt.Sprintf("user:%06d", i))
		if err := tree.Insert(k, []byte("profile")); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := tree.Find([]byte("user:000042")); !ok || string(v[:7]) != "profile" {
		t.Fatalf("var find = %q,%v", v, ok)
	}
	got := tree.ScanN([]byte("user:000100"), 3)
	if len(got) != 3 || string(got[0].Key) != "user:000100" {
		t.Fatalf("var scan = %v", got)
	}
}

func TestPublicAPIConcurrentVar(t *testing.T) {
	tree, err := CreateConcurrentVar(Options{PoolSize: 64 << 20})
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
				k := []byte(fmt.Sprintf("w%d-%05d", w, i))
				if err := tree.Insert(k, []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if tree.Len() != 4000 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIPTreeVariant(t *testing.T) {
	tree, err := Create(Options{PoolSize: 32 << 20, PTree: true, LeafCap: 32})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 500; k++ {
		tree.Insert(k, k) //nolint:errcheck
	}
	if v, ok := tree.Find(123); !ok || v != 123 {
		t.Fatalf("ptree find = %d,%v", v, ok)
	}
}

// TestPublicAPILatencyEmulation checks that Options.Latency reaches the
// emulator by what the emulator counted, not by a wall-clock ratio (which a
// slow host or -race bends): with emulation on, every miss is charged the
// configured read latency and the busy-waiting Finds cannot have finished
// faster than that sum; with it off, nothing is charged.
func TestPublicAPILatencyEmulation(t *testing.T) {
	const finds = 2000
	run := func(ns time.Duration) (charged, elapsed time.Duration) {
		tree, err := Create(Options{
			PoolSize: 32 << 20,
			Latency:  LatencyProfile{Emulate: ns > 0, Read: ns, Write: ns, CacheBytes: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= finds; k++ {
			tree.Insert(k, k) //nolint:errcheck
		}
		stats := tree.Pool().Stats()
		misses := stats.ReadMisses.Load()
		start := time.Now()
		for k := uint64(1); k <= finds; k++ {
			tree.Find(k)
		}
		elapsed = time.Since(start)
		misses = stats.ReadMisses.Load() - misses
		if cfg := tree.Pool().Config(); cfg.Mode != scm.LatencyCount {
			charged = time.Duration(misses) * cfg.ReadLatency
		}
		return charged, elapsed
	}
	if charged, _ := run(0); charged != 0 {
		t.Fatalf("emulation off, yet %v of read latency was charged", charged)
	}
	const ns = 2 * time.Microsecond
	charged, elapsed := run(ns)
	// No cache: a Find misses on the leaf header and on the key it probes.
	if charged < finds*2*ns {
		t.Fatalf("charged %v for %d finds, want at least two %v misses each", charged, finds, ns)
	}
	if elapsed < charged {
		t.Fatalf("finds took %v, less than the %v of latency charged to them", elapsed, charged)
	}
}

// TestPublicAPIIterators smokes the resumable iterators through all four
// constructors; the exhaustive differential coverage lives in internal/crashtest.
func TestPublicAPIIterators(t *testing.T) {
	fixed, err := Create(Options{PoolSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cfixed, err := CreateConcurrent(Options{PoolSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(10); k <= 500; k += 10 {
		if err := fixed.Insert(k, k*3); err != nil {
			t.Fatal(err)
		}
		if err := cfixed.Insert(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	for name, it := range map[string]*Iterator{
		"Tree":  fixed.Iterator(100, 200),
		"CTree": cfixed.Iterator(100, 200),
	} {
		var got []uint64
		for ; it.Valid(); it.Next() {
			if it.Value() != it.Key()*3 {
				t.Fatalf("%s: value %d for key %d", name, it.Value(), it.Key())
			}
			got = append(got, it.Key())
		}
		it.Close()
		if len(got) != 10 || got[0] != 100 || got[9] != 190 {
			t.Fatalf("%s: window [100,200) = %v", name, got)
		}
	}
	rev := fixed.ReverseIterator(0, 0)
	if !rev.Valid() || rev.Key() != 500 {
		t.Fatalf("reverse start = %d, want 500", rev.Key())
	}
	rev.Next()
	if rev.Key() != 490 {
		t.Fatalf("reverse second = %d, want 490", rev.Key())
	}
	rev.Close()

	vt, err := CreateVar(Options{PoolSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cvt, err := CreateConcurrentVar(Options{PoolSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("key%03d", i))
		if err := vt.Insert(k, []byte("12345678")); err != nil {
			t.Fatal(err)
		}
		if err := cvt.Insert(k, []byte("12345678")); err != nil {
			t.Fatal(err)
		}
	}
	for name, it := range map[string]*VarIterator{
		"VarTree":  vt.Iterator([]byte("key010"), []byte("key020")),
		"CVarTree": cvt.Iterator([]byte("key010"), []byte("key020")),
	} {
		n := 0
		for ; it.Valid(); it.Next() {
			n++
		}
		it.Close()
		if n != 10 {
			t.Fatalf("%s: window [key010,key020) yielded %d keys, want 10", name, n)
		}
	}
	vrev := cvt.ReverseIterator(nil, nil)
	if !vrev.Valid() || string(vrev.Key()) != "key049" {
		t.Fatalf("var reverse start = %q", vrev.Key())
	}
	vrev.Close()

	kvs := cvt.ScanN([]byte("key045"), 100)
	if len(kvs) != 5 || string(kvs[0].Key) != "key045" {
		t.Fatalf("CVarTree.ScanN = %d pairs, first %q", len(kvs), kvs[0].Key)
	}
}
