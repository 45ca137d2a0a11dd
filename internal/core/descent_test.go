package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"fptree/internal/scm"
)

// checkDescentContract checks, on a quiesced engine and against the
// persistent leaf chain, the contract every traversal shares: a descent
// reaches the same leaf with and without separator tracking; every live key
// of that leaf lies in (lb, ub]; descending to lb lands on the chain
// predecessor and descending to the successor of ub on the chain successor
// (no lb: the list head; no ub: the list tail). Reverse iteration, forward
// stepping and the single-threaded leaf-delete neighbor hunt all rest on it.
func checkDescentContract[K, V any](t *testing.T, e *engine[K, V], targets []K) {
	t.Helper()
	pred := map[uint64]uint64{} // leaf offset -> chain predecessor (0: head)
	tail := uint64(0)
	for p := e.leafList.first(); !p.IsNull(); p = e.leafList.after(p.Offset) {
		pred[p.Offset] = tail
		tail = p.Offset
	}
	less := e.cdc.less
	check := func(target *K, rightmost bool) {
		t.Helper()
		name := "leftmost"
		switch {
		case target != nil:
			name = fmt.Sprintf("target %v", *target)
		case rightmost:
			name = "rightmost"
		}
		_, _, plain, ok := e.descend(target, rightmost, nil)
		var sep separators[K]
		_, _, ref, sok := e.descend(target, rightmost, &sep)
		if !ok || !sok || ref == nil {
			t.Fatalf("%s: descent failed on a quiesced, non-empty tree", name)
		}
		if plain != ref {
			t.Fatalf("%s: reached leaf %#x without separators, %#x with", name, plain.off, ref.off)
		}
		bm := e.leafBitmap(ref.off)
		for s := 0; s < e.sh.cap; s++ {
			if bm&(1<<s) == 0 {
				continue
			}
			k := e.cdc.slotKey(ref.off, s)
			if (sep.lb.ok && !less(sep.lb.key, k)) || (sep.ub.ok && less(sep.ub.key, k)) {
				t.Fatalf("%s: leaf %#x holds key %v outside (%v, %v]", name, ref.off, k, sep.lb, sep.ub)
			}
		}
		if sep.lb.ok {
			_, _, left, _ := e.descend(&sep.lb.key, false, nil)
			if left.off != pred[ref.off] {
				t.Fatalf("%s: descending to lb %v lands on %#x, chain predecessor of %#x is %#x",
					name, sep.lb.key, left.off, ref.off, pred[ref.off])
			}
		} else if pred[ref.off] != 0 {
			t.Fatalf("%s: leaf %#x has no left separator but is not the list head", name, ref.off)
		}
		if sep.ub.ok {
			next, nok := e.cdc.nextAfter(sep.ub.key)
			if !nok {
				t.Fatalf("%s: separator %v has no successor", name, sep.ub.key)
			}
			_, _, right, _ := e.descend(&next, false, nil)
			if pred[right.off] != ref.off {
				t.Fatalf("%s: descending past ub %v lands on %#x, whose chain predecessor is %#x, not %#x",
					name, sep.ub.key, right.off, pred[right.off], ref.off)
			}
		} else if ref.off != tail {
			t.Fatalf("%s: leaf %#x has no right separator but is not the list tail", name, ref.off)
		}
		if target == nil && rightmost != (ref.off == tail) && len(pred) > 1 {
			t.Fatalf("%s: reached leaf %#x (tail %#x)", name, ref.off, tail)
		}
	}
	for i := range targets {
		check(&targets[i], false)
	}
	check(nil, false)
	check(nil, true)
}

// TestDescentContractFixed runs the descent contract over random fixed-key
// trees on both controllers: after random inserts, after deletes that empty
// whole leaves, and after a recovery rebuilt the inner nodes.
func TestDescentContractFixed(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, concurrent := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			cfg := Config{LeafCap: 2 + rng.Intn(7), InnerFanout: 2 + rng.Intn(4), GroupSize: 4}
			pool := newPool(16)
			var e *engine[uint64, uint64]
			if concurrent {
				tr, err := CCreate(pool, cfg)
				if err != nil {
					t.Fatal(err)
				}
				e = tr.engine
			} else {
				tr, err := Create(pool, cfg)
				if err != nil {
					t.Fatal(err)
				}
				e = tr.engine
			}
			targets := []uint64{0, 1}
			var keys []uint64
			for i := 0; i < 400; i++ {
				k := rng.Uint64()>>uint(rng.Intn(60)) | 1
				if i == 0 {
					k = math.MaxUint64 // the key with no successor
				}
				if _, dup := e.Find(k); dup {
					continue
				}
				if err := e.Insert(k, k); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, k)
				targets = append(targets, k-1, k, k+1)
			}
			checkDescentContract(t, e, targets)
			// Delete runs of neighbors so whole leaves empty and get unlinked
			// (or, on the concurrent tree, linger empty).
			slices.Sort(keys)
			for i := 0; i < len(keys); i++ {
				if i/20%2 == 0 || rng.Intn(4) == 0 {
					if _, err := e.Delete(keys[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkDescentContract(t, e, targets)
			pool.Crash()
			if concurrent {
				tr, err := COpen(pool)
				if err != nil {
					t.Fatal(err)
				}
				e = tr.engine
			} else {
				tr, err := Open(pool)
				if err != nil {
					t.Fatal(err)
				}
				e = tr.engine
			}
			checkDescentContract(t, e, targets)
		}
	}
}

// TestDescentContractVar is the var-key run of the same contract.
func TestDescentContractVar(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, concurrent := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			cfg := Config{LeafCap: 2 + rng.Intn(7), InnerFanout: 2 + rng.Intn(4), GroupSize: 4, ValueSize: 8}
			pool := newPool(16)
			var e *engine[[]byte, []byte]
			if concurrent {
				tr, err := CCreateVar(pool, cfg)
				if err != nil {
					t.Fatal(err)
				}
				e = tr.engine
			} else {
				tr, err := CreateVar(pool, cfg)
				if err != nil {
					t.Fatal(err)
				}
				e = tr.engine
			}
			targets := [][]byte{{0}, {0xff, 0xff, 0xff, 0xff, 0xff}}
			var keys [][]byte
			for i := 0; i < 300; i++ {
				k := make([]byte, 1+rng.Intn(6))
				for j := range k {
					k[j] = "ab\x00\xff"[rng.Intn(4)]
				}
				if _, dup := e.Find(k); dup {
					continue
				}
				if err := e.Insert(k, val8(uint64(i))); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, k)
				targets = append(targets, k, append(slices.Clone(k), 0))
				if len(k) > 1 {
					targets = append(targets, k[:len(k)-1])
				}
			}
			checkDescentContract(t, e, targets)
			for i, k := range keys {
				if i/15%2 == 0 || rng.Intn(4) == 0 {
					if _, err := e.Delete(k); err != nil {
						t.Fatal(err)
					}
				}
			}
			if e.Len() > 0 {
				checkDescentContract(t, e, targets)
			}
		}
	}
}

// TestFallbackWriterGivesUpOnDeadLeaf: a fallback writer waits for its leaf
// instead of failing fast, and every other loser waits for the holder to
// leave, but a leaf that was unlinked while they waited stays locked forever.
// The wait must report the conflict so they re-descend: spinning on the dead
// handle would hold the global fallback lock for good and stall every later
// fallback writer behind it (or strand a reader or writer for good).
func TestFallbackWriterGivesUpOnDeadLeaf(t *testing.T) {
	tr := newCTree(t, Config{LeafCap: 2, InnerFanout: 4})
	for k := uint64(1); k <= 8; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// A writer descends to the head leaf, then loses the race against the
	// delete that empties and unlinks it.
	head := tr.findLeafRef(1)
	for k := uint64(1); k <= 8 && !head.dead.Load(); k++ {
		if l := tr.findLeafRef(k); l == head {
			if _, err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !head.dead.Load() {
		t.Fatal("emptying the head leaf did not unlink it")
	}
	fallback, optimistic := true, false
	for _, w := range []struct {
		name string
		fb   *bool
	}{{"fallback writer", &fallback}, {"writer", &optimistic}, {"reader", nil}} {
		done := make(chan bool, 1)
		go func() { done <- tr.waitLeaf(head, w.fb) }()
		select {
		case got := <-done:
			if got {
				t.Fatalf("%s's wait on a dead leaf ended as if its holder had left", w.name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s is still waiting for a dead leaf's lock", w.name)
		}
	}
}

// TestSingleThreadedReadsShareable is the TATP read-only mix in miniature,
// for `go test -race`: the single-threaded trees are not safe for concurrent
// use, but callers may share them between readers while no writer runs
// (tatp.DB holds an RWMutex that way), so Find, ScanN and the iterators must
// not write unsynchronized shared state.
func TestSingleThreadedReadsShareable(t *testing.T) {
	tr := newTree(t, Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4})
	vt := newVarTree(t, Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4, ValueSize: 8})
	const n = 500
	for i := 1; i <= n; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := vt.Insert(strKey(i), val8(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				k := 1 + rng.Intn(n)
				if v, ok := tr.Find(uint64(k)); !ok || v != uint64(k) {
					t.Errorf("Find(%d) = %d,%v", k, v, ok)
				}
				if _, ok := vt.Find(strKey(k)); !ok {
					t.Errorf("var Find(%d) missed", k)
				}
				if got := tr.ScanN(uint64(k), 20); len(got) != min(20, n-k+1) || got[0].Key != uint64(k) {
					t.Errorf("ScanN(%d) = %d pairs", k, len(got))
				}
				it := vt.Iterator(strKey(k), nil)
				for j := 0; j < 20 && it.Valid(); j++ {
					it.Next()
				}
				it.Close()
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestBoundedIteratorStopsAtWindowEnd: a bounded window must cost leaves in
// proportion to the window, not to the tree. The single-threaded forward step
// follows next pointers without separators, so it has to notice from the
// leaf's own keys that the window's far edge was passed.
func TestBoundedIteratorStopsAtWindowEnd(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		pool := scm.NewPool(32<<20, scm.LatencyConfig{CacheBytes: -1})
		var tr *Tree
		var err error
		if concurrent {
			tr, err = CCreate(pool, Config{LeafCap: 8, InnerFanout: 8})
		} else {
			tr, err = Create(pool, Config{LeafCap: 8, InnerFanout: 8, GroupSize: 4})
		}
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 4000; k++ {
			if err := tr.Insert(k, k*10); err != nil {
				t.Fatal(err)
			}
		}
		before := pool.Stats().Reads.Load()
		got := collectFixed(t, tr.Iterator(100, 120))
		if len(got) != 20 || got[0] != 100 || got[19] != 119 {
			t.Fatalf("concurrent=%v: window [100,120) = %v", concurrent, got)
		}
		// 20 keys span at most 6 half-full leaves; allow the one leaf past the
		// edge. A leaf costs at most 1 + 2*8 loads.
		if loads := pool.Stats().Reads.Load() - before; loads > 7*17 {
			t.Fatalf("concurrent=%v: a 20-key window cost %d SCM loads; the iterator walked past its end", concurrent, loads)
		}
	}
}
