package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

func newCVarTree(t *testing.T, cfg Config) *CVarTree {
	t.Helper()
	tr, err := CCreateVar(newPool(128), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCVarSingleThreadBasics(t *testing.T) {
	tr := newCVarTree(t, Config{LeafCap: 8, InnerFanout: 4, NumLogs: 8, ValueSize: 16})
	if _, ok := tr.Find([]byte("x")); ok {
		t.Fatal("find on empty")
	}
	const n = 2000
	rng := rand.New(rand.NewSource(3))
	for _, i := range rng.Perm(n) {
		if err := tr.Insert(strKey(i), strKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Find(strKey(i))
		if !ok || !bytes.HasPrefix(v, strKey(i)[:12]) { // the 16-byte value field truncates the longer keys
			t.Fatalf("find(%d) = %q,%v", i, v, ok)
		}
	}
	for i := 0; i < n; i += 2 {
		if ok, err := tr.Update(strKey(i), []byte("upd")); err != nil || !ok {
			t.Fatalf("update(%d): %v %v", i, ok, err)
		}
	}
	for i := 0; i < n; i += 4 {
		if ok, err := tr.Delete(strKey(i)); err != nil || !ok {
			t.Fatalf("delete(%d): %v %v", i, ok, err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Find(strKey(i))
		switch {
		case i%4 == 0:
			if ok {
				t.Fatalf("deleted %d present", i)
			}
		case i%2 == 0:
			if !ok || !bytes.HasPrefix(v, []byte("upd")) {
				t.Fatalf("updated %d = %q,%v", i, v, ok)
			}
		default:
			if !ok {
				t.Fatalf("key %d missing", i)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCVarScan(t *testing.T) {
	tr := newCVarTree(t, Config{LeafCap: 8, InnerFanout: 4})
	for i := 0; i < 600; i++ {
		if err := tr.Insert(strKey(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.ScanN(strKey(100), 50)
	if len(got) != 50 {
		t.Fatalf("scan %d entries", len(got))
	}
	for i, kv := range got {
		if !bytes.Equal(kv.Key, strKey(100+i)) {
			t.Fatalf("scan[%d] = %q", i, kv.Key)
		}
	}
}

// TestCVarConcurrentScanWhileWriting is TestCTreeConcurrentScanWhileWriting's
// guarantee on the var tree, with the writers inside the scanned range: odd
// keys churn (their inserts split the leaves under the scan, their deletes
// empty and unlink them) while even keys are stable, and every scan must
// return strictly ascending keys containing exactly the stable keys of the
// range it covered.
func TestCVarConcurrentScanWhileWriting(t *testing.T) {
	tr := newCVarTree(t, Config{LeafCap: 4, InnerFanout: 4, NumLogs: 8, ValueSize: 8})
	const n = 1200
	for i := 0; i < n; i += 2 {
		if err := tr.Insert(strKey(i), val8(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Each writer owns every other odd key: Upsert is update-then-
				// insert, so two writers upserting one key could both insert it.
				k := strKey(rng.Intn(n/4)*4 + 2*w + 1)
				if rng.Intn(2) == 0 {
					tr.Upsert(k, val8(1)) //nolint:errcheck
				} else {
					tr.Delete(k) //nolint:errcheck
				}
			}
		}(w)
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		from := rng.Intn(n - 200)
		got := tr.ScanN(strKey(from), 100)
		if len(got) != 100 {
			t.Fatalf("round %d: scan returned %d pairs", round, len(got))
		}
		want := (from + 1) / 2 * 2 // first stable key >= from
		for i, kv := range got {
			if bytes.Compare(kv.Key, strKey(from)) < 0 || (i > 0 && bytes.Compare(got[i-1].Key, kv.Key) >= 0) {
				t.Fatalf("round %d: scan[%d] = %q after %q, from %q", round, i, kv.Key, got[max(i-1, 0)].Key, strKey(from))
			}
			switch {
			case bytes.Equal(kv.Key, strKey(want)):
				want += 2
			case bytes.Compare(kv.Key, strKey(want)) > 0:
				t.Fatalf("round %d: scan skipped stable key %q (saw %q)", round, strKey(want), kv.Key)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestCVarConcurrentMixedStripes(t *testing.T) {
	tr := newCVarTree(t, Config{LeafCap: 8, InnerFanout: 4, NumLogs: 8, ValueSize: 8})
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			oracle := map[string][]byte{}
			for i := 0; i < 2500; i++ {
				k := append([]byte{byte('a' + w)}, strKey(rng.Intn(300))...)
				switch rng.Intn(4) {
				case 0, 3:
					v := strKey(rng.Intn(1000))[:8]
					if err := tr.Upsert(k, v); err != nil {
						t.Error(err)
						return
					}
					oracle[string(k)] = v
				case 1:
					ok, err := tr.Delete(k)
					if err != nil {
						t.Error(err)
						return
					}
					if _, want := oracle[string(k)]; ok != want {
						t.Errorf("delete(%q) = %v want %v", k, ok, want)
						return
					}
					delete(oracle, string(k))
				case 2:
					v, ok := tr.Find(k)
					want, wok := oracle[string(k)]
					if ok != wok || (ok && !bytes.Equal(v[:8], want)) {
						t.Errorf("find(%q) = %q,%v want %q,%v", k, v, ok, want, wok)
						return
					}
				}
			}
			for k, v := range oracle {
				got, ok := tr.Find([]byte(k))
				if !ok || !bytes.Equal(got[:8], v) {
					t.Errorf("final find(%q) = %q,%v", k, got, ok)
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

func TestCVarRecovery(t *testing.T) {
	pool := newPool(128)
	tr, err := CCreateVar(pool, Config{LeafCap: 8, InnerFanout: 4, NumLogs: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				k := strKey(w*1500 + i)
				if err := tr.Insert(k, k); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 6000; i += 2 {
		if _, err := tr.Delete(strKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	pool.Crash()
	tr2, err := COpenVar(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6000; i++ {
		_, ok := tr2.Find(strKey(i))
		if (i%2 == 0) == ok {
			t.Fatalf("key %d presence %v after recovery", i, ok)
		}
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCVarUpdateZeroAlloc pins the in-place value write: an update of a
// variable-key tree stages the key's pointer and writes the value straight
// into the slot, so it allocates nothing — with a full-size value and with a
// short one, which comes back at its own length over the longer one's bytes.
func TestCVarUpdateZeroAlloc(t *testing.T) {
	tr := newCVarTree(t, Config{ValueSize: 16})
	const n = 500
	for i := 0; i < n; i++ {
		if err := tr.Insert(strKey(i), []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	key := strKey(n / 2)
	for _, val := range [][]byte{[]byte("fedcba9876543210"), []byte("short")} {
		allocs := testing.AllocsPerRun(200, func() {
			if ok, err := tr.Update(key, val); err != nil || !ok {
				t.Fatalf("update: %v %v", ok, err)
			}
		})
		if allocs != 0 {
			t.Errorf("Update with a %d-byte value: %.1f allocs/op, want 0", len(val), allocs)
		}
		got, ok := tr.Find(key)
		if !ok || !bytes.Equal(got, val) {
			t.Fatalf("after update value = %q, want %q", got, val)
		}
	}
}
