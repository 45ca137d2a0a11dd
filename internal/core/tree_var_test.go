package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fptree/internal/crashtest"
)

func newVarTree(t *testing.T, cfg Config) *VarTree {
	t.Helper()
	tr, err := CreateVar(newPool(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// strKey renders key i in numeric order with a length that depends on i: 12
// and 16 bytes (stored in the slot), 17 and 40 (behind a key pointer). Every
// suite built on it mixes both representations inside one leaf, on both sides
// of the boundary and exactly on it.
func strKey(i int) []byte {
	k := fmt.Sprintf("key-%08d", i)
	return []byte(k + [...]string{"", "-16b", "-17by", "-a-key-block-behind-a-pointer"}[i%4])
}

var varConfigs = []struct {
	name string
	cfg  Config
}{
	{"leaf8-groups4", Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4}},
	{"leaf8-nogroups", Config{LeafCap: 8, InnerFanout: 4}},
	{"leaf56-val32", Config{LeafCap: 56, InnerFanout: 16, GroupSize: 8, ValueSize: 32}},
}

func TestVarEmptyTree(t *testing.T) {
	tr := newVarTree(t, Config{LeafCap: 8})
	if _, ok := tr.Find([]byte("a")); ok {
		t.Fatal("Find on empty tree")
	}
	if ok, _ := tr.Delete([]byte("a")); ok {
		t.Fatal("Delete on empty tree")
	}
	if err := tr.Insert(nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestVarInsertFind(t *testing.T) {
	for _, tc := range varConfigs {
		t.Run(tc.name, func(t *testing.T) {
			tr := newVarTree(t, tc.cfg)
			rng := rand.New(rand.NewSource(2))
			const n = 2000
			for _, i := range rng.Perm(n) {
				if err := tr.Insert(strKey(i), strKey(i*2)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				v, ok := tr.Find(strKey(i))
				if !ok {
					t.Fatalf("key %d missing", i)
				}
				// The value comes back at its own length, cut to the field's.
				want := strKey(i * 2)
				if len(want) > tr.cfg.ValueSize {
					want = want[:tr.cfg.ValueSize]
				}
				if !bytes.Equal(v, want) {
					t.Fatalf("value for %d = %q", i, v)
				}
			}
			if _, ok := tr.Find([]byte("nope")); ok {
				t.Fatal("found absent key")
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVarKeysOfMixedLengths(t *testing.T) {
	tr := newVarTree(t, Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4})
	keys := [][]byte{
		[]byte("a"), []byte("ab"), []byte("abc"),
		[]byte("b"), bytes.Repeat([]byte("x"), 300),
		bytes.Repeat([]byte("x"), 301), []byte("zz"),
	}
	for i, k := range keys {
		if err := tr.Insert(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		v, ok := tr.Find(k)
		if !ok || v[0] != byte(i) {
			t.Fatalf("key %q = %v,%v", k, v, ok)
		}
	}
	// Prefix keys must not be confused for each other.
	if _, ok := tr.Find([]byte("abcd")); ok {
		t.Fatal("prefix confusion")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVarUpdateDelete(t *testing.T) {
	for _, tc := range varConfigs {
		t.Run(tc.name, func(t *testing.T) {
			tr := newVarTree(t, tc.cfg)
			const n = 1000
			for i := 0; i < n; i++ {
				if err := tr.Insert(strKey(i), []byte("v0")); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i += 2 {
				ok, err := tr.Update(strKey(i), []byte("v1"))
				if err != nil || !ok {
					t.Fatalf("update %d: %v %v", i, ok, err)
				}
			}
			for i := 0; i < n; i += 4 {
				ok, err := tr.Delete(strKey(i))
				if err != nil || !ok {
					t.Fatalf("delete %d: %v %v", i, ok, err)
				}
			}
			for i := 0; i < n; i++ {
				v, ok := tr.Find(strKey(i))
				switch {
				case i%4 == 0:
					if ok {
						t.Fatalf("deleted key %d present", i)
					}
				case i%2 == 0:
					if !ok || v[1] != '1' {
						t.Fatalf("updated key %d = %q,%v", i, v, ok)
					}
				default:
					if !ok || v[1] != '0' {
						t.Fatalf("key %d = %q,%v", i, v, ok)
					}
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVarDeleteAllAndReuse(t *testing.T) {
	tr := newVarTree(t, Config{LeafCap: 4, InnerFanout: 3, GroupSize: 2})
	for round := 0; round < 3; round++ {
		for i := 0; i < 300; i++ {
			if err := tr.Insert(strKey(i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 300; i++ {
			if ok, err := tr.Delete(strKey(i)); err != nil || !ok {
				t.Fatalf("round %d delete %d: %v %v", round, i, ok, err)
			}
		}
		if tr.Len() != 0 {
			t.Fatalf("round %d: Len = %d", round, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVarScan(t *testing.T) {
	tr := newVarTree(t, Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4})
	for i := 0; i < 500; i++ {
		if err := tr.Insert(strKey(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.ScanN(strKey(100), 50)
	if len(got) != 50 {
		t.Fatalf("scan returned %d", len(got))
	}
	for i, kv := range got {
		if !bytes.Equal(kv.Key, strKey(100+i)) {
			t.Fatalf("scan[%d] = %q", i, kv.Key)
		}
	}
}

func TestVarRecoveryCleanRestart(t *testing.T) {
	for _, tc := range varConfigs {
		t.Run(tc.name, func(t *testing.T) {
			pool := newPool(64)
			tr, err := CreateVar(pool, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			const n = 1200
			for i := 0; i < n; i++ {
				if err := tr.Insert(strKey(i), strKey(i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i += 3 {
				if _, err := tr.Delete(strKey(i)); err != nil {
					t.Fatal(err)
				}
			}
			pool.Crash()
			tr2, err := OpenVar(pool)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				_, ok := tr2.Find(strKey(i))
				if (i%3 == 0) == ok {
					t.Fatalf("key %d presence = %v after recovery", i, ok)
				}
			}
			if err := tr2.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVarCrashAtEveryFlush drives mixed operations with crash injection at
// every flush boundary, recovering and checking invariants (including the
// exactly-one-owner invariant that the Algorithm 17 leak scan maintains).
func TestVarCrashAtEveryFlush(t *testing.T) {
	for _, tc := range varConfigs {
		t.Run(tc.name, func(t *testing.T) {
			pool := newPool(64)
			tr, err := CreateVar(pool, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			acked := map[string]bool{}
			for i := 0; i < 200; i++ {
				if err := tr.Insert(strKey(i*3), []byte("v")); err != nil {
					t.Fatal(err)
				}
				acked[string(strKey(i*3))] = true
			}
			rng := rand.New(rand.NewSource(17))
			step := int64(1)
			for op := 0; op < 120; op++ {
				i := rng.Intn(900)
				key := strKey(i)
				var mode int
				if acked[string(key)] {
					mode = rng.Intn(2) + 1 // update or delete
				}
				fn := func() error {
					switch mode {
					case 1:
						_, err := tr.Update(key, []byte("u"))
						return err
					case 2:
						_, err := tr.Delete(key)
						return err
					default:
						return tr.Insert(key, []byte("v"))
					}
				}
				pool.FailAfterFlushes(step)
				crashed, opErr := crashtest.Crashes(fn)
				pool.FailAfterFlushes(-1)
				if opErr != nil {
					t.Fatal(opErr)
				}
				if !crashed {
					switch mode {
					case 2:
						delete(acked, string(key))
					default:
						acked[string(key)] = true
					}
					step = 1
					continue
				}
				step++
				pool.Crash()
				tr, err = OpenVar(pool)
				if err != nil {
					t.Fatalf("op %d step %d: %v", op, step, err)
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("op %d step %d: %v", op, step, err)
				}
				// Every acked key except the in-flight one must be present.
				for k := range acked {
					if k == string(key) {
						continue
					}
					if _, ok := tr.Find([]byte(k)); !ok {
						t.Fatalf("op %d step %d: acked key %q lost", op, step, k)
					}
				}
				// In-flight delete may have rolled forward.
				if mode == 2 {
					if _, ok := tr.Find(key); !ok {
						delete(acked, string(key))
					}
				}
				op--
			}
		})
	}
}

func TestVarQuickAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := CreateVar(newPool(32), Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4, ValueSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		oracle := map[string][]byte{}
		for i := 0; i < 600; i++ {
			k := strKey(rng.Intn(150))
			switch rng.Intn(3) {
			case 0:
				v := make([]byte, 16)
				rng.Read(v)
				if err := tr.Upsert(k, v); err != nil {
					t.Fatal(err)
				}
				oracle[string(k)] = v
			case 1:
				ok, err := tr.Delete(k)
				if err != nil {
					t.Fatal(err)
				}
				if _, want := oracle[string(k)]; ok != want {
					t.Fatalf("delete(%q) = %v, oracle %v", k, ok, want)
				}
				delete(oracle, string(k))
			case 2:
				v, ok := tr.Find(k)
				want, wok := oracle[string(k)]
				if ok != wok || (ok && !bytes.Equal(v, want)) {
					t.Fatalf("find(%q) = %q,%v want %q,%v", k, v, ok, want, wok)
				}
			}
		}
		if tr.Len() != len(oracle) {
			t.Fatalf("Len = %d oracle %d", tr.Len(), len(oracle))
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestVarProbeStatsNearOne(t *testing.T) {
	tr := newVarTree(t, Config{LeafCap: 56, InnerFanout: 64, GroupSize: 8})
	rng := rand.New(rand.NewSource(4))
	keys := make([][]byte, 0, 10000)
	for i := 0; i < 10000; i++ {
		k := []byte(fmt.Sprintf("k%015d", rng.Int63()))
		keys = append(keys, k)
		if err := tr.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	avg := avgProbes(&tr.Ops, func() {
		for _, k := range keys {
			if _, ok := tr.Find(k); !ok {
				t.Fatalf("key %q missing", k)
			}
		}
	})
	if avg < 1.0 || avg > 1.35 {
		t.Fatalf("avg probes = %.3f", avg)
	}
}

func TestVarFingerprintDistribution(t *testing.T) {
	// hash1Bytes must spread realistic key sets across all 256 values.
	counts := make([]int, 256)
	for i := 0; i < 100000; i++ {
		counts[hash1Bytes(strKey(i))]++
	}
	lo, hi := counts[0], counts[0]
	for _, c := range counts {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if lo == 0 || hi > 3*100000/256 {
		t.Fatalf("fingerprint skew: min %d max %d", lo, hi)
	}
}

func TestFixedFingerprintDistribution(t *testing.T) {
	counts := make([]int, 256)
	for i := uint64(0); i < 100000; i++ {
		counts[hash1(i)]++ // sequential keys: worst case for naive hashes
	}
	lo, hi := counts[0], counts[0]
	for _, c := range counts {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if lo == 0 || hi > 3*100000/256 {
		t.Fatalf("fingerprint skew: min %d max %d", lo, hi)
	}
}
