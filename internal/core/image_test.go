package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"fptree/internal/scm"
)

// imageOracleFixed applies the same trace to a map, the ground truth the
// reloaded tree must match.
func imageOracleFixed(seed int64, n int) map[uint64]uint64 {
	oracle := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		k := uint64(rng.Intn(300)) + 1
		switch rng.Intn(4) {
		case 0:
			delete(oracle, k)
		case 1:
			if _, ok := oracle[k]; ok {
				oracle[k] = k * 3
			}
		default:
			oracle[k] = k * 7
		}
	}
	return oracle
}

func driveFixed(t *testing.T, tr engineOpsFixed, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		k := uint64(rng.Intn(300)) + 1
		var err error
		switch rng.Intn(4) {
		case 0:
			_, err = tr.Delete(k)
		case 1:
			_, err = tr.Update(k, k*3)
		default:
			err = tr.Upsert(k, k*7)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestImageRoundTripFixed drives a mixed workload, saves the image, reloads
// it, and diffs the recovered tree against a map oracle for both the
// single-threaded and concurrent fixed-key codecs.
func TestImageRoundTripFixed(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		name := "single"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			const seed, n = 99, 1500
			pool := newPool(64)
			cfg := Config{LeafCap: 8, InnerFanout: 4}
			if concurrent {
				tr, err := CCreate(pool, cfg)
				if err != nil {
					t.Fatal(err)
				}
				driveFixed(t, tr, seed, n)
			} else {
				tr, err := Create(pool, cfg)
				if err != nil {
					t.Fatal(err)
				}
				driveFixed(t, tr, seed, n)
			}

			path := filepath.Join(t.TempDir(), "tree.img")
			if err := pool.Save(path); err != nil {
				t.Fatal(err)
			}
			lp, err := scm.Load(path, scm.LatencyConfig{CacheBytes: -1})
			if err != nil {
				t.Fatal(err)
			}

			oracle := imageOracleFixed(seed, n)
			var got []KV
			if concurrent {
				rt, err := COpen(lp)
				if err != nil {
					t.Fatal(err)
				}
				if err := rt.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				got = scanAllFixed(rt.engine)
			} else {
				rt, err := Open(lp)
				if err != nil {
					t.Fatal(err)
				}
				if err := rt.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				got = scanAllFixed(rt.engine)
			}
			if len(got) != len(oracle) {
				t.Fatalf("reloaded tree has %d keys, oracle has %d", len(got), len(oracle))
			}
			for _, kv := range got {
				if want, ok := oracle[kv.Key]; !ok || want != kv.Value {
					t.Fatalf("key %d = %d, oracle %d (present=%v)", kv.Key, kv.Value, want, ok)
				}
			}
		})
	}
}

// TestImageRoundTripVar is the variable-size-key version of the oracle diff.
func TestImageRoundTripVar(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		name := "single"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			const seed, n = 101, 1200
			pool := newPool(64)
			cfg := Config{LeafCap: 8, InnerFanout: 4}
			var tr engineOpsVar
			var err error
			if concurrent {
				tr, err = CCreateVar(pool, cfg)
			} else {
				tr, err = CreateVar(pool, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			oracle := make(map[string]string)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				k := string(strKey(rng.Intn(250)))
				v := fmt.Sprintf("val-%04d", rng.Intn(1000))
				switch rng.Intn(4) {
				case 0:
					if _, err := tr.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
					delete(oracle, k)
				case 1:
					ok, err := tr.Update([]byte(k), []byte(v))
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						oracle[k] = v
					}
				default:
					if err := tr.Upsert([]byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
					oracle[k] = v
				}
			}

			path := filepath.Join(t.TempDir(), "tree.img")
			if err := pool.Save(path); err != nil {
				t.Fatal(err)
			}
			lp, err := scm.Load(path, scm.LatencyConfig{CacheBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			var got []VarKV
			if concurrent {
				rt, err := COpenVar(lp)
				if err != nil {
					t.Fatal(err)
				}
				if err := rt.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				got = scanAllVar(rt.engine)
			} else {
				rt, err := OpenVar(lp)
				if err != nil {
					t.Fatal(err)
				}
				if err := rt.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				got = scanAllVar(rt.engine)
			}
			if len(got) != len(oracle) {
				t.Fatalf("reloaded tree has %d keys, oracle has %d", len(got), len(oracle))
			}
			for _, kv := range got {
				if want, ok := oracle[string(kv.Key)]; !ok || want != string(kv.Value) {
					t.Fatalf("key %q = %q, oracle %q (present=%v)", kv.Key, kv.Value, want, ok)
				}
			}
		})
	}
}

// TestFileBackedOpenRecoversTree builds a tree in a file-backed arena, tears
// the process image down without Close (as kill -9 would), reopens the file
// and checks the recovered tree matches the oracle.
func TestFileBackedOpenRecoversTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arena.dat")
	pool, recovered, err := scm.OpenFile(path, 16<<20, scm.LatencyConfig{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if recovered {
		t.Fatal("fresh file reported recovered")
	}
	if HasTree(pool) {
		t.Fatal("fresh arena claims to hold a tree")
	}
	tr, err := CCreate(pool, Config{LeafCap: 8, InnerFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	const seed, n = 7, 2000
	driveFixed(t, tr, seed, n)
	// No Close, no Sync: simulate sudden process death. Reopen from the file.
	pool2, recovered, err := scm.OpenFile(path, 0, scm.LatencyConfig{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	if !recovered {
		t.Fatal("existing arena not reported recovered")
	}
	if pool2.WasCleanShutdown() {
		t.Fatal("sudden-death image reported clean shutdown")
	}
	if !HasTree(pool2) {
		t.Fatal("HasTree = false on an arena with a tree")
	}
	rt, err := COpen(pool2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	oracle := imageOracleFixed(seed, n)
	if rt.Len() != len(oracle) {
		t.Fatalf("recovered tree has %d keys, oracle has %d", rt.Len(), len(oracle))
	}
	for k, v := range oracle {
		got, ok := rt.Find(k)
		if !ok || got != v {
			t.Fatalf("key %d = %d,%v, oracle %d", k, got, ok, v)
		}
	}
}

// TestHasTreeDistinguishesStates pins the create-or-recover decision points:
// no tree on a fresh arena, a tree after Create, and still a tree after a
// save/load cycle.
func TestHasTreeDistinguishesStates(t *testing.T) {
	pool := newPool(64)
	if HasTree(pool) {
		t.Fatal("fresh pool claims a tree")
	}
	if _, err := Create(pool, Config{LeafCap: 8, InnerFanout: 4}); err != nil {
		t.Fatal(err)
	}
	if !HasTree(pool) {
		t.Fatal("pool with a tree reports none")
	}
	path := filepath.Join(t.TempDir(), "img")
	if err := pool.Save(path); err != nil {
		t.Fatal(err)
	}
	lp, err := scm.Load(path, scm.LatencyConfig{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !HasTree(lp) {
		t.Fatal("loaded image with a tree reports none")
	}
}

// TestFileBackedRecoveryMatchesInMemory recovers the same logical state two
// ways — through a Save image and through the arena file — and checks the
// durable bytes agree, so the file-backed path cannot drift from the
// emulated-crash pipeline.
func TestFileBackedRecoveryMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	filePath := filepath.Join(dir, "arena.dat")
	pool, _, err := scm.OpenFile(filePath, 16<<20, scm.LatencyConfig{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(pool, Config{LeafCap: 8, InnerFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	driveFixed(t, tr, 11, 800)
	imgPath := filepath.Join(dir, "arena.img")
	if err := pool.Save(imgPath); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	fp, _, err := scm.OpenFile(filePath, 0, scm.LatencyConfig{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	ip, err := scm.Load(imgPath, scm.LatencyConfig{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := Open(fp)
	if err != nil {
		t.Fatal(err)
	}
	it, err := Open(ip)
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ft.Len() != it.Len() {
		t.Fatalf("file-backed Len %d != image Len %d", ft.Len(), it.Len())
	}
	fKV, iKV := scanAllFixed(ft.engine), scanAllFixed(it.engine)
	for i := range fKV {
		if fKV[i] != iKV[i] {
			t.Fatalf("scan[%d]: file-backed %v, image %v", i, fKV[i], iKV[i])
		}
	}
	// The clean-shutdown marker differs by design (the image was saved before
	// Close); mask it out and the durable views must be byte-identical.
	fImg, iImg := durableImage(t, ft.pool), durableImage(t, it.pool)
	for _, img := range [][]byte{fImg, iImg} {
		for i := 0; i < 8; i++ {
			img[scm.OffClean+i] = 0
		}
	}
	if !bytes.Equal(fImg, iImg) {
		t.Fatal("file-backed and image-loaded durable arenas differ")
	}
}
