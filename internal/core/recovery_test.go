package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"fptree/internal/scm"
)

// runWithCrash executes fn with the flush fail-point armed at failAt,
// swallows the injected crash if it fires, and reverts unflushed lines so
// the pool holds exactly the durable crash image.
func runWithCrash(t *testing.T, pool *scm.Pool, failAt int64, fn func()) {
	t.Helper()
	pool.FailAfterFlushes(failAt)
	func() {
		defer func() {
			if r := recover(); r != nil && r != scm.ErrInjectedCrash {
				panic(r)
			}
		}()
		fn()
	}()
	pool.FailAfterFlushes(-1)
	pool.Crash()
}

// durableImage snapshots the pool's durable view.
func durableImage(t *testing.T, pool *scm.Pool) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "img")
	if err := pool.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// leafListOffsets walks the persistent leaf list and returns the offsets in
// list order.
func leafListOffsets[K any, V any](e *engine[K, V]) []uint64 {
	var offs []uint64
	for p := e.leafList.first(); !p.IsNull(); p = e.leafList.after(p.Offset) {
		offs = append(offs, p.Offset)
	}
	return offs
}

// checkRecoveredEqual asserts that two recoveries of the same crash image —
// sequential on the original pool, parallel on a clone — produced identical
// trees: same logical contents, same leaf list, and byte-identical durable
// arenas (recovery's repair writes must not depend on the worker count).
func checkRecoveredEqual[K any, V any](t *testing.T, seq, par *engine[K, V]) {
	t.Helper()
	if err := seq.CheckInvariants(); err != nil {
		t.Fatalf("sequential recovery invariants: %v", err)
	}
	if err := par.CheckInvariants(); err != nil {
		t.Fatalf("parallel recovery invariants: %v", err)
	}
	if seq.Len() != par.Len() {
		t.Fatalf("Len: sequential %d, parallel %d", seq.Len(), par.Len())
	}
	so, po := leafListOffsets(seq), leafListOffsets(par)
	if len(so) != len(po) {
		t.Fatalf("leaf list length: sequential %d, parallel %d", len(so), len(po))
	}
	for i := range so {
		if so[i] != po[i] {
			t.Fatalf("leaf list[%d]: sequential %#x, parallel %#x", i, so[i], po[i])
		}
	}
	if !bytes.Equal(durableImage(t, seq.pool), durableImage(t, par.pool)) {
		t.Fatal("durable arenas differ after recovery")
	}
}

func scanAllFixed(e *engine[uint64, uint64]) []KV {
	var out []KV
	e.scan(0, func(k, v uint64) bool {
		out = append(out, KV{k, v})
		return true
	})
	return out
}

func scanAllVar(e *engine[[]byte, []byte]) []VarKV {
	var out []VarKV
	e.scan(nil, func(k, v []byte) bool {
		out = append(out, VarKV{append([]byte(nil), k...), append([]byte(nil), v...)})
		return true
	})
	return out
}

// fixedCrashTrace drives a mixed insert/update/delete workload against a
// fresh fixed-key tree until the armed crash fires (or the trace completes),
// and leaves the pool holding the crash image.
func fixedCrashTrace(t *testing.T, pool *scm.Pool, cfg Config, concurrent bool, seed, failAt int64) {
	t.Helper()
	var (
		tr  engineOpsFixed
		err error
	)
	if concurrent {
		tr, err = CCreate(pool, cfg)
	} else {
		tr, err = Create(pool, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	runWithCrash(t, pool, failAt, func() {
		for i := 0; i < 1200; i++ {
			k := uint64(rng.Intn(300)) + 1
			switch rng.Intn(4) {
			case 0:
				tr.Delete(k) //nolint:errcheck
			case 1:
				tr.Update(k, k*3) //nolint:errcheck
			default:
				tr.Upsert(k, k*7) //nolint:errcheck
			}
		}
	})
}

// engineOpsFixed is the op surface shared by Tree and CTree. The trace uses
// Upsert, not Insert: Insert is the paper's Algorithm 2, which assumes the
// key is absent.
type engineOpsFixed interface {
	Upsert(k, v uint64) error
	Update(k, v uint64) (bool, error)
	Delete(k uint64) (bool, error)
}

func varCrashTrace(t *testing.T, pool *scm.Pool, cfg Config, concurrent bool, seed, failAt int64) {
	t.Helper()
	var (
		tr  engineOpsVar
		err error
	)
	if concurrent {
		tr, err = CCreateVar(pool, cfg)
	} else {
		tr, err = CreateVar(pool, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	runWithCrash(t, pool, failAt, func() {
		for i := 0; i < 1000; i++ {
			k := strKey(rng.Intn(250))
			n := rng.Intn(1000)
			v := []byte(fmt.Sprintf("val-%04d", n))
			if cfg.ValueSize > len(v) { // a wide field takes values of mixed lengths
				v = bytes.Repeat(v, cfg.ValueSize/len(v)+1)[:[...]int{0, 3, 34, 40, 41, cfg.ValueSize}[n%6]]
			}
			switch rng.Intn(4) {
			case 0:
				tr.Delete(k) //nolint:errcheck
			case 1:
				tr.Update(k, v) //nolint:errcheck
			default:
				tr.Upsert(k, v) //nolint:errcheck
			}
		}
	})
}

type engineOpsVar interface {
	Upsert(k, v []byte) error
	Update(k, v []byte) (bool, error)
	Delete(k []byte) (bool, error)
}

// The fail points sampled per variant: early (mid first splits), middle, and
// late (usually past the end of the trace, i.e. a clean shutdown image).
var recoveryFailPoints = []int64{7, 61, 257, 1031, 1 << 30}

// TestParallelRecoveryEquivalenceFixed proves that recovering the same crash
// image with Workers=1 and Workers=3 yields identical fixed-key trees —
// logically and byte-for-byte in the durable arena.
func TestParallelRecoveryEquivalenceFixed(t *testing.T) {
	cases := []struct {
		name       string
		cfg        Config
		concurrent bool
	}{
		{"groups4", Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4}, false},
		{"nogroups", Config{LeafCap: 8, InnerFanout: 4}, false},
		{"concurrent", Config{LeafCap: 8, InnerFanout: 4}, true},
	}
	for _, tc := range cases {
		for _, failAt := range recoveryFailPoints {
			t.Run(fmt.Sprintf("%s/fail%d", tc.name, failAt), func(t *testing.T) {
				pool := newPool(64)
				fixedCrashTrace(t, pool, tc.cfg, tc.concurrent, 42, failAt)
				clone := pool.Clone()

				var seq, par *engine[uint64, uint64]
				if tc.concurrent {
					s, err := COpen(pool, RecoveryOptions{Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					p, err := COpen(clone, RecoveryOptions{Workers: 3})
					if err != nil {
						t.Fatal(err)
					}
					seq, par = s.engine, p.engine
				} else {
					s, err := Open(pool, RecoveryOptions{Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					p, err := Open(clone, RecoveryOptions{Workers: 3})
					if err != nil {
						t.Fatal(err)
					}
					seq, par = s.engine, p.engine
				}
				checkRecoveredEqual(t, seq, par)
				sKV, pKV := scanAllFixed(seq), scanAllFixed(par)
				if len(sKV) != len(pKV) {
					t.Fatalf("scan: sequential %d pairs, parallel %d", len(sKV), len(pKV))
				}
				for i := range sKV {
					if sKV[i] != pKV[i] {
						t.Fatalf("scan[%d]: sequential %v, parallel %v", i, sKV[i], pKV[i])
					}
				}
				if par.Ops.RecoveryNanos.Load() == 0 {
					t.Fatal("RecoveryNanos not recorded")
				}
				if len(sKV) > 0 && par.Ops.RecoveryLeaves.Load() == 0 {
					t.Fatal("RecoveryLeaves not counted")
				}
			})
		}
	}
}

// TestParallelRecoveryEquivalenceVar is the variable-size-key version, which
// additionally exercises the Algorithm 17 leak scan: three scanners detect
// leaks concurrently, and the repair pass must reclaim them in the same
// order as at one.
func TestParallelRecoveryEquivalenceVar(t *testing.T) {
	cases := []struct {
		name       string
		cfg        Config
		concurrent bool
	}{
		{"groups4", Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4}, false},
		{"nogroups", Config{LeafCap: 8, InnerFanout: 4}, false},
		{"concurrent", Config{LeafCap: 8, InnerFanout: 4}, true},
		// kvserver's slot: the scan reads the header and the slots' head
		// lines, never a tail.
		{"kv122", Config{LeafCap: 8, InnerFanout: 4, ValueSize: 122}, true},
	}
	for _, tc := range cases {
		for _, failAt := range recoveryFailPoints {
			t.Run(fmt.Sprintf("%s/fail%d", tc.name, failAt), func(t *testing.T) {
				pool := newPool(64)
				varCrashTrace(t, pool, tc.cfg, tc.concurrent, 43, failAt)
				clone := pool.Clone()

				var seq, par *engine[[]byte, []byte]
				if tc.concurrent {
					s, err := COpenVar(pool, RecoveryOptions{Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					p, err := COpenVar(clone, RecoveryOptions{Workers: 3})
					if err != nil {
						t.Fatal(err)
					}
					seq, par = s.engine, p.engine
				} else {
					s, err := OpenVar(pool, RecoveryOptions{Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					p, err := OpenVar(clone, RecoveryOptions{Workers: 3})
					if err != nil {
						t.Fatal(err)
					}
					seq, par = s.engine, p.engine
				}
				checkRecoveredEqual(t, seq, par)
				sKV, pKV := scanAllVar(seq), scanAllVar(par)
				if len(sKV) != len(pKV) {
					t.Fatalf("scan: sequential %d pairs, parallel %d", len(sKV), len(pKV))
				}
				for i := range sKV {
					if !bytes.Equal(sKV[i].Key, pKV[i].Key) || !bytes.Equal(sKV[i].Value, pKV[i].Value) {
						t.Fatalf("scan[%d]: sequential %q=%q, parallel %q=%q",
							i, sKV[i].Key, sKV[i].Value, pKV[i].Key, pKV[i].Value)
					}
				}
			})
		}
	}
}

// TestParallelRecoveryWorkerCounts recovers one image at several worker
// counts (including more workers than leaves) and checks they all agree with
// the sequential result.
func TestParallelRecoveryWorkerCounts(t *testing.T) {
	pool := newPool(64)
	fixedCrashTrace(t, pool, Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4}, false, 7, 509)
	ref, err := Open(pool.Clone(), RecoveryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := scanAllFixed(ref.engine)
	refImg := durableImage(t, ref.pool)
	for _, w := range []int{0, 1, 2, 4, 64} {
		tr, err := Open(pool.Clone(), RecoveryOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got := scanAllFixed(tr.engine)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d pairs, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: scan[%d] = %v, want %v", w, i, got[i], want[i])
			}
		}
		if !bytes.Equal(durableImage(t, tr.pool), refImg) {
			t.Fatalf("workers=%d: durable arena differs from sequential recovery", w)
		}
	}
}

// TestBulkLoadCrashRecoveryBothCodecs sweeps crash points through a bulk
// load for both codecs and asserts that sequential and parallel recovery of
// each image agree, the result is a strict prefix of the input, and the tree
// stays writable. This pins the ordering fix: a leaf's validity bitmap is
// committed only after the leaf is linked, so an unreachable leaf can never
// resurrect dead keys through group-slot reuse.
func TestBulkLoadCrashRecoveryBothCodecs(t *testing.T) {
	const n = 300
	failPoints := []int64{1, 2, 3, 5, 9, 17, 33, 65, 129, 257}

	t.Run("fixed", func(t *testing.T) {
		kvs := make([]KV, n)
		for i := range kvs {
			kvs[i] = KV{Key: uint64(i)*2 + 1, Value: uint64(i) * 7}
		}
		for _, failAt := range failPoints {
			pool := newPool(64)
			tr, err := Create(pool, Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			runWithCrash(t, pool, failAt, func() {
				tr.BulkLoad(kvs, 0) //nolint:errcheck
			})
			clone := pool.Clone()
			seq, err := Open(pool, RecoveryOptions{Workers: 1})
			if err != nil {
				t.Fatalf("fail%d: %v", failAt, err)
			}
			par, err := Open(clone, RecoveryOptions{Workers: 3})
			if err != nil {
				t.Fatalf("fail%d: %v", failAt, err)
			}
			checkRecoveredEqual(t, seq.engine, par.engine)
			got := scanAllFixed(seq.engine)
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Key < got[j].Key }) {
				t.Fatalf("fail%d: recovered scan not sorted", failAt)
			}
			for i, kv := range got {
				if kv != kvs[i] {
					t.Fatalf("fail%d: recovered[%d] = %v, want %v (not a prefix)", failAt, i, kv, kvs[i])
				}
			}
			// The recovered tree keeps working: the rest of the load goes in
			// one by one.
			for _, kv := range kvs[len(got):] {
				if err := seq.Insert(kv.Key, kv.Value); err != nil {
					t.Fatalf("fail%d: insert after recovery: %v", failAt, err)
				}
			}
			if seq.Len() != n {
				t.Fatalf("fail%d: Len = %d after refill, want %d", failAt, seq.Len(), n)
			}
			if err := seq.CheckInvariants(); err != nil {
				t.Fatalf("fail%d: %v", failAt, err)
			}
		}
	})

	t.Run("var", func(t *testing.T) {
		kvs := make([]VarKV, n)
		for i := range kvs {
			kvs[i] = VarKV{
				Key:   strKey(i),
				Value: []byte(fmt.Sprintf("val-%04d", i)),
			}
		}
		for _, failAt := range failPoints {
			pool := newPool(64)
			tr, err := CreateVar(pool, Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			runWithCrash(t, pool, failAt, func() {
				tr.BulkLoad(kvs, 0) //nolint:errcheck
			})
			clone := pool.Clone()
			seq, err := OpenVar(pool, RecoveryOptions{Workers: 1})
			if err != nil {
				t.Fatalf("fail%d: %v", failAt, err)
			}
			par, err := OpenVar(clone, RecoveryOptions{Workers: 3})
			if err != nil {
				t.Fatalf("fail%d: %v", failAt, err)
			}
			checkRecoveredEqual(t, seq.engine, par.engine)
			got := scanAllVar(seq.engine)
			for i, kv := range got {
				if !bytes.Equal(kv.Key, kvs[i].Key) || !bytes.Equal(kv.Value, kvs[i].Value) {
					t.Fatalf("fail%d: recovered[%d] = %q, want %q (not a prefix)", failAt, i, kv.Key, kvs[i].Key)
				}
			}
			for _, kv := range kvs[len(got):] {
				if err := seq.Insert(kv.Key, kv.Value); err != nil {
					t.Fatalf("fail%d: insert after recovery: %v", failAt, err)
				}
			}
			if seq.Len() != n {
				t.Fatalf("fail%d: Len = %d after refill, want %d", failAt, seq.Len(), n)
			}
			if err := seq.CheckInvariants(); err != nil {
				t.Fatalf("fail%d: %v", failAt, err)
			}
		}
	})
}

// TestRecoveryScanLines pins what the recovery leaf pass reads, as misses on
// a cold cache. A leaf whose keys are inline costs its two header lines: the
// walker's read of line 1 (next pointer, high key, flags) and the worker's
// read of the bitmap in line 0 — for the fixed leaf (16 lines), the
// benchmark's 32-byte-slot var leaf (30 lines) and kvserver's 8640-byte leaf
// (135 lines) alike — plus the one read of the list head. A leaf that may own
// key blocks is still scanned for them: scanLeaf reads the whole slot array of
// a leaf whose slots are no larger than a line (30 lines for the 1920-byte
// leaf), and of kvserver's leaf the two header lines and the 56 head lines
// that hold the key cells and length words, 58 lines of its 135: the 77 of
// the tails, which hold nothing but value bytes, are never touched, however
// long the values stored there.
func TestRecoveryScanLines(t *testing.T) {
	const n = 56 * 8
	for _, tc := range []struct {
		name    string
		create  func(*scm.Pool) (*engine[[]byte, []byte], error)
		keyFmt  string // one %07d verb
		perLeaf uint64 // misses per list leaf
	}{
		{"var-32B-slot", func(p *scm.Pool) (*engine[[]byte, []byte], error) {
			tr, err := CCreateVar(p, Config{LeafCap: 56})
			return tr.engine, err
		}, "scan-key-%07d", 2},
		{"kvserver", func(p *scm.Pool) (*engine[[]byte, []byte], error) {
			tr, err := CCreateVar(p, Config{LeafCap: 56, ValueSize: 122})
			return tr.engine, err
		}, "scan-key-%07d", 2},
		{"var-32B-slot-pointer-keys", func(p *scm.Pool) (*engine[[]byte, []byte], error) {
			tr, err := CCreateVar(p, Config{LeafCap: 56})
			return tr.engine, err
		}, "scan-key-pointer-block-%07d", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := scm.NewPool(16<<20, scm.LatencyConfig{})
			e, err := tc.create(pool)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
				if err := e.Insert([]byte(fmt.Sprintf(tc.keyFmt, i)), []byte("value")); err != nil {
					t.Fatal(err)
				}
			}
			checkLeafPass(t, e, tc.perLeaf, n)
		})
	}
	t.Run("fixed", func(t *testing.T) {
		pool := scm.NewPool(16<<20, scm.LatencyConfig{})
		tr, err := CCreate(pool, Config{LeafCap: 56})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
			if err := tr.Insert(uint64(i)*0x9E3779B97F4A7C15, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		checkLeafPass(t, tr.engine, 2, n)
	})

	// scanLeaf, the read of a leaf that may own key blocks.
	for _, tc := range []struct {
		valSize           int
		leafBytes, misses uint64
	}{{8, 1920, 30}, {122, 8640, 58}} {
		pool := scm.NewPool(4<<20, scm.LatencyConfig{})
		tr, err := CCreateVar(pool, Config{LeafCap: 56, ValueSize: tc.valSize})
		if err != nil {
			t.Fatal(err)
		}
		var maxKey []byte
		for i := 0; i < 56; i++ { // one full leaf of the benchmark's 16-byte keys, values filling the field
			k := []byte(fmt.Sprintf("scan-key-%07d", i))
			if err := tr.Insert(k, bytes.Repeat([]byte{'v'}, tc.valSize)); err != nil {
				t.Fatal(err)
			}
			maxKey = k
		}
		if tr.Height() != 1 || tr.sh.size != tc.leafBytes {
			t.Fatalf("value field %d: height %d, leaf of %d bytes, want one leaf of %d", tc.valSize, tr.Height(), tr.sh.size, tc.leafBytes)
		}
		leaf := tr.leafList.first().Offset
		pool.Crash() // nothing is dirty: this only empties the simulated cache
		m0 := pool.Stats().ReadMisses.Load()
		k, n, leaks := tr.cdc.scanLeaf(leaf, &scanBuf{leaf: make([]byte, tr.sh.size)})
		if m := pool.Stats().ReadMisses.Load() - m0; m != tc.misses {
			t.Errorf("value field %d: scanLeaf of a %d-byte leaf cost %d misses, want %d", tc.valSize, tc.leafBytes, m, tc.misses)
		}
		if !bytes.Equal(k, maxKey) || n != 56 || len(leaks) != 0 {
			t.Errorf("value field %d: scanLeaf = %q, %d live, %d repairs, want %q, 56, 0", tc.valSize, k, n, len(leaks), maxKey)
		}
	}
}

// checkLeafPass runs the recovery leaf pass over e's list on a cold cache and
// checks that it costs perLeaf misses per leaf plus the list head's — or, for
// perLeaf 0, at least every line of every leaf, which only a scan of each
// leaf's cells reads — and that it counts the n keys and returns the inner
// nodes' separators.
func checkLeafPass[K, V any](t *testing.T, e *engine[K, V], perLeaf uint64, n int) {
	t.Helper()
	want := e.leafSeps(e.root.Load(), nil, nil)
	e.pool.Crash() // nothing is dirty: this only empties the simulated cache
	m0 := e.pool.Stats().ReadMisses.Load()
	leaves, bounds, size := e.collectLeaves(2)
	misses := e.pool.Stats().ReadMisses.Load() - m0
	if size != n || len(leaves) != len(want) || len(leaves) < 4 {
		t.Fatalf("leaf pass: %d keys in %d leaves, want %d in %d (4 or more)", size, len(leaves), n, len(want))
	}
	for i := range leaves[:len(leaves)-1] {
		if b := bounds[i]; leaves[i] != want[i].off || e.cdc.less(b, *want[i].sep) || e.cdc.less(*want[i].sep, b) {
			t.Fatalf("leaf %d: %#x bounded by %v, the inner nodes hold %#x bounded by %v", i, leaves[i], b, want[i].off, *want[i].sep)
		}
	}
	l := uint64(len(leaves))
	switch lines := e.sh.size / scm.LineSize; {
	case perLeaf == 0 && misses < lines*l:
		t.Errorf("leaf pass over %d leaves that own key blocks: %d misses (%.2f per leaf), want a scan of each leaf's %d lines",
			l, misses, float64(misses)/float64(l), lines)
	case perLeaf > 0 && misses != perLeaf*l+1:
		t.Errorf("leaf pass over %d leaves: %d misses (%.2f per leaf), want %d per leaf plus 1",
			l, misses, float64(misses)/float64(l), perLeaf)
	}
}

// TestScanLeafAllocs pins that the recovery scan reads a leaf into its
// worker's scratch: a fixed-key leaf scans without allocating, and a var-key
// leaf allocates only the clone of its max key — for inline keys, in the slot
// that is read whole with its leaf and in kvserver's wide slot, whose heads
// are read with the header, and for 32-byte pointer keys, whose key blocks
// are read into the scratch's key buffers.
func TestScanLeafAllocs(t *testing.T) {
	pool := scm.NewPool(4<<20, scm.LatencyConfig{})
	ft, err := CCreate(pool, Config{LeafCap: 56})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 56; i++ {
		if err := ft.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	leaf, sb := ft.leafList.first().Offset, &scanBuf{leaf: make([]byte, ft.sh.size)}
	if a := testing.AllocsPerRun(100, func() { ft.cdc.scanLeaf(leaf, sb) }); a != 0 {
		t.Errorf("fixed scanLeaf: %v allocs per leaf, want 0", a)
	}
	for _, tc := range []struct {
		valSize int
		key     string // a format with one %07d verb
	}{
		{8, "scan-key-%07d"},                 // inline, 16 bytes
		{122, "scan-key-%07d"},               // inline, wide slot
		{8, "scan-key-pointer-block-%07d-x"}, // 32 bytes, in a key block
	} {
		pool := scm.NewPool(4<<20, scm.LatencyConfig{})
		vt, err := CCreateVar(pool, Config{LeafCap: 56, ValueSize: tc.valSize})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 56; i++ {
			if err := vt.Insert([]byte(fmt.Sprintf(tc.key, i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		leaf, sb := vt.leafList.first().Offset, &scanBuf{leaf: make([]byte, vt.sh.size)}
		if a := testing.AllocsPerRun(100, func() { vt.cdc.scanLeaf(leaf, sb) }); a > 1 {
			t.Errorf("var scanLeaf, value field %d, %d-byte keys: %v allocs per leaf, want <= 1 (the max key)",
				tc.valSize, len(fmt.Sprintf(tc.key, 0)), a)
		}
	}
}

// TestRecoveryReadsSameLinesAtEveryWorkerCount pins that the worker count
// changes only who scans a leaf, not what recovery reads or writes: on two
// trees larger than the simulated 4 MiB cache — the paper's grouped,
// bulk-loaded fixed-key tree and kvserver's concurrent var-key tree, crashed
// mid-delete — recovery at 1, 2 and 4 workers makes the same number of pool
// reads, scans the same list leaves and leaves the same durable arena.
func TestRecoveryReadsSameLinesAtEveryWorkerCount(t *testing.T) {
	fixed := scm.NewPool(24<<20, scm.LatencyConfig{})
	ft, err := Create(fixed, Config{GroupSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	kvs := make([]KV, 300000)
	for i := range kvs {
		kvs[i] = KV{Key: uint64(i+1) << 8, Value: uint64(i)}
	}
	if err := ft.BulkLoad(kvs, 0); err != nil {
		t.Fatal(err)
	}
	fixed.Crash()

	kv := scm.NewPool(32<<20, scm.LatencyConfig{})
	vt, err := CCreateVar(kv, Config{LeafCap: 56, InnerFanout: 64, ValueSize: 122})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30000
	val := bytes.Repeat([]byte{'v'}, 32)
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		if err := vt.Insert([]byte(fmt.Sprintf("scan-key-%07d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	runWithCrash(t, kv, 4000, func() {
		for i := 0; i < n; i += 3 {
			vt.Delete([]byte(fmt.Sprintf("scan-key-%07d", i))) //nolint:errcheck
		}
	})

	for _, tc := range []struct {
		name     string
		pool     *scm.Pool
		leafSize uint64
		open     func(*scm.Pool, RecoveryOptions) (*OpStats, func() error, error)
	}{
		{"grouped-fixed", fixed, ft.sh.size, func(p *scm.Pool, o RecoveryOptions) (*OpStats, func() error, error) {
			tr, err := Open(p, o)
			if err != nil {
				return nil, nil, err
			}
			return &tr.Ops, tr.CheckInvariants, nil
		}},
		{"kvserver-var", kv, vt.sh.size, func(p *scm.Pool, o RecoveryOptions) (*OpStats, func() error, error) {
			tr, err := COpenVar(p, o)
			if err != nil {
				return nil, nil, err
			}
			return &tr.Ops, tr.CheckInvariants, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var reads, leaves uint64
			var img []byte
			for _, w := range []int{1, 2, 4} {
				p := tc.pool.Clone()
				ops, check, err := tc.open(p, RecoveryOptions{Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				r, l := p.Stats().Reads.Load(), ops.RecoveryLeaves.Load()
				if err := check(); err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				im := durableImage(t, p)
				if w == 1 {
					if l*tc.leafSize <= 4<<20 {
						t.Fatalf("%d leaves of %d bytes fit the 4 MiB cache", l, tc.leafSize)
					}
					reads, leaves, img = r, l, im
					continue
				}
				if r != reads || l != leaves {
					t.Errorf("workers=%d: %d reads, %d leaves scanned; workers=1: %d, %d", w, r, l, reads, leaves)
				}
				if !bytes.Equal(im, img) {
					t.Errorf("workers=%d: durable arena differs from workers=1", w)
				}
			}
		})
	}
}

// TestOpenKeepsInnerFanout: recovery rebuilds the inner nodes at the fanout
// the tree was created with, which the metadata block keeps. BulkLoad builds
// them as recovery does, so a bulk-loaded tree reopens with its own height
// and leaf parents; a concurrent tree grown by inserts reopens at its fanout
// too. At the default fanout both would come back one flat leaf parent.
func TestOpenKeepsInnerFanout(t *testing.T) {
	const n = 2000
	for _, fanout := range []int{4, 64} {
		t.Run(fmt.Sprint(fanout), func(t *testing.T) {
			cfg := Config{LeafCap: 8, InnerFanout: fanout, GroupSize: 4}
			kvs := make([]Pair[uint64, uint64], n)
			for i := range kvs {
				kvs[i] = Pair[uint64, uint64]{uint64(i), uint64(i)}
			}
			tr, err := Create(newPool(16), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.BulkLoad(kvs, 0); err != nil {
				t.Fatal(err)
			}
			height, parents := tr.Height(), len(leafParents(tr.root.Load(), nil))
			if parents < 2 {
				t.Fatalf("fanout %d: %d leaf parents, want several", fanout, parents)
			}
			tr.Pool().Crash()
			re, err := Open(tr.Pool())
			if err != nil {
				t.Fatal(err)
			}
			if h, p := re.Height(), len(leafParents(re.root.Load(), nil)); h != height || p != parents {
				t.Errorf("fanout %d: reopened with height %d and %d leaf parents, created with %d and %d", fanout, h, p, height, parents)
			}
			if err := re.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			ct, err := CCreate(newPool(16), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, kv := range kvs {
				if err := ct.Insert(kv.Key, kv.Value); err != nil {
					t.Fatal(err)
				}
			}
			ct.Pool().Crash()
			cre, err := COpen(ct.Pool())
			if err != nil {
				t.Fatal(err)
			}
			if got := cre.cfg.InnerFanout; got != fanout {
				t.Errorf("concurrent tree created at fanout %d reopened at %d", fanout, got)
			}
		})
	}
}
