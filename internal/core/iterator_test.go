package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"fptree/internal/scm"
)

// newFixedIterTree builds a small-leaf tree so a few dozen keys span many
// leaves and iterator stepping is actually exercised. Edge-domain behavior
// must be identical across concurrency controllers when used from a single
// goroutine, so every test runs both.
func newFixedIterTree(t *testing.T, concurrent bool) *Tree {
	t.Helper()
	create, cfg := Create, Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4}
	if concurrent {
		create, cfg.GroupSize = CCreate, 0
	}
	tr, err := create(newPool(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func newVarIterTree(t *testing.T, concurrent bool) *VarTree {
	t.Helper()
	create, cfg := CreateVar, Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4, ValueSize: 8}
	if concurrent {
		create, cfg.GroupSize = CCreateVar, 0
	}
	tr, err := create(newPool(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func val8(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// collectFixed drains an iterator, checking that every value matches k*10.
func collectFixed(t *testing.T, it *FixedIterator) []uint64 {
	t.Helper()
	defer it.Close()
	var got []uint64
	for ; it.Valid(); it.Next() {
		if it.Value() != it.Key()*10 {
			t.Fatalf("key %d carries value %d, want %d", it.Key(), it.Value(), it.Key()*10)
		}
		got = append(got, it.Key())
	}
	if it.Next() {
		t.Fatal("Next on an exhausted iterator reported true")
	}
	return got
}

func collectVar(t *testing.T, it *VarIterator) []string {
	t.Helper()
	defer it.Close()
	var got []string
	for ; it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	return got
}

func eqU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqStr(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScanMatchesIteratorFixed: Scan, ScanN and Iterator are three consumers
// of one cursor and must return the identical sequence for the same window on
// both fixed trees — including from the key at the top of the key space,
// which has no successor to resume from.
func TestScanMatchesIteratorFixed(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		tr := newFixedIterTree(t, concurrent)
		rng := rand.New(rand.NewSource(11))
		keys := []uint64{math.MaxUint64, math.MaxUint64 - 1, 1}
		for i := 0; i < 300; i++ {
			keys = append(keys, rng.Uint64()>>uint(rng.Intn(40))|2)
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
		for _, k := range keys {
			if err := tr.Insert(k, k*10); err != nil {
				t.Fatal(err)
			}
		}
		froms := []uint64{0, 1, 2, keys[len(keys)/2], keys[len(keys)/2] + 1, math.MaxUint64 - 1, math.MaxUint64}
		for _, from := range froms {
			i, _ := slices.BinarySearch(keys, from)
			want := keys[i:]
			var scanned []uint64
			tr.Scan(from, func(k, v uint64) bool {
				if v != k*10 {
					t.Fatalf("scan: key %d carries value %d", k, v)
				}
				scanned = append(scanned, k)
				return true
			})
			if !eqU64(scanned, want) {
				t.Fatalf("concurrent=%v Scan(%d) = %d keys, want %d", concurrent, from, len(scanned), len(want))
			}
			if got := collectFixed(t, tr.Iterator(from, 0)); !eqU64(got, want) {
				t.Fatalf("concurrent=%v Iterator(%d,0) = %d keys, want %d", concurrent, from, len(got), len(want))
			}
			for _, n := range []int{-1, 0, 1, 9, 100, len(keys) + 5} {
				got := tr.ScanN(from, n)
				if n <= 0 {
					if got != nil {
						t.Fatalf("ScanN(%d,%d) = %v, want nil", from, n, got)
					}
					continue
				}
				if len(got) != min(n, len(want)) || cap(got) > min(n, tr.Len()) {
					t.Fatalf("concurrent=%v ScanN(%d,%d): len %d cap %d, want len %d", concurrent, from, n, len(got), cap(got), min(n, len(want)))
				}
				for j, kv := range got {
					if kv.Key != want[j] || kv.Value != kv.Key*10 {
						t.Fatalf("concurrent=%v ScanN(%d,%d)[%d] = %v, want key %d", concurrent, from, n, j, kv, want[j])
					}
				}
			}
		}
	}
}

// TestScanMatchesIteratorVar is the var-key run, with 0xFF… keys at the top
// of the key space.
func TestScanMatchesIteratorVar(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		tr := newVarIterTree(t, concurrent)
		rng := rand.New(rand.NewSource(12))
		keys := []string{"\xff", "\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff", "\x00"}
		for i := 0; i < 300; i++ {
			k := make([]byte, 1+rng.Intn(5))
			for j := range k {
				k[j] = "az\x00\xff"[rng.Intn(4)]
			}
			keys = append(keys, string(k))
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
		for _, k := range keys {
			if err := tr.Insert([]byte(k), []byte(k + "padding!")[:8]); err != nil {
				t.Fatal(err)
			}
		}
		top := keys[len(keys)-1]
		for _, from := range []string{"\x00", "a", keys[len(keys)/2], keys[len(keys)/2] + "\x00", "\xff", top, top + "\x00"} {
			i, _ := slices.BinarySearch(keys, from)
			want := keys[i:]
			var scanned []string
			tr.Scan([]byte(from), func(k, _ []byte) bool {
				scanned = append(scanned, string(k))
				return true
			})
			if !eqStr(scanned, want) {
				t.Fatalf("concurrent=%v Scan(%q) = %d keys, want %d", concurrent, from, len(scanned), len(want))
			}
			if got := collectVar(t, tr.Iterator([]byte(from), nil)); !eqStr(got, want) {
				t.Fatalf("concurrent=%v Iterator(%q,nil) = %d keys, want %d", concurrent, from, len(got), len(want))
			}
			for _, n := range []int{-1, 0, 1, 9, len(keys) + 5} {
				got := tr.ScanN([]byte(from), n)
				if n <= 0 {
					if got != nil {
						t.Fatalf("ScanN(%q,%d) = %v, want nil", from, n, got)
					}
					continue
				}
				if len(got) != min(n, len(want)) {
					t.Fatalf("concurrent=%v ScanN(%q,%d) = %d pairs, want %d", concurrent, from, n, len(got), min(n, len(want)))
				}
				for j, kv := range got {
					if string(kv.Key) != want[j] || !bytes.Equal(kv.Value, []byte(want[j] + "padding!")[:8]) {
						t.Fatalf("concurrent=%v ScanN(%q,%d)[%d] = %q", concurrent, from, n, j, kv.Key)
					}
				}
			}
		}
	}
}

// TestIteratorDomainsFixed covers the edge windows of the issue checklist on
// both controllers: empty tree, start == end, start past the max key,
// reverse from the unbounded end, and interior windows whose edges do and do
// not coincide with stored keys.
func TestIteratorDomainsFixed(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		name := map[bool]string{false: "st", true: "occ"}[concurrent]
		t.Run(name, func(t *testing.T) {
			tr := newFixedIterTree(t, concurrent)

			// Empty tree: nothing in any window, forward or reverse.
			if it := tr.Iterator(0, 0); it.Valid() {
				t.Fatal("iterator over empty tree is Valid")
			}
			if it := tr.ReverseIterator(0, 0); it.Valid() {
				t.Fatal("reverse iterator over empty tree is Valid")
			}

			// Keys 10, 20, ..., 400: several leaves at LeafCap 8.
			var keys []uint64
			for k := uint64(10); k <= 400; k += 10 {
				if err := tr.Insert(k, k*10); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, k)
			}
			rev := make([]uint64, len(keys))
			for i, k := range keys {
				rev[len(keys)-1-i] = k
			}

			// Full range, both directions.
			if got := collectFixed(t, tr.Iterator(0, 0)); !eqU64(got, keys) {
				t.Fatalf("full forward: got %v want %v", got, keys)
			}
			if got := collectFixed(t, tr.ReverseIterator(0, 0)); !eqU64(got, rev) {
				t.Fatalf("full reverse: got %v want %v", got, rev)
			}

			// start == end is empty by [start, end) definition.
			if it := tr.Iterator(50, 50); it.Valid() {
				t.Fatal("start == end window is non-empty")
			}
			if it := tr.ReverseIterator(50, 50); it.Valid() {
				t.Fatal("reverse start == end window is non-empty")
			}
			// Inverted window likewise.
			if it := tr.Iterator(60, 50); it.Valid() {
				t.Fatal("inverted window is non-empty")
			}

			// start past the max key.
			if it := tr.Iterator(401, 0); it.Valid() {
				t.Fatalf("start past max: got key %d", it.Key())
			}
			if it := tr.ReverseIterator(401, 0); it.Valid() {
				t.Fatalf("reverse window above max: got key %d", it.Key())
			}

			// Interior window [35, 205): exclusive end, inclusive start, edges
			// between keys.
			want := []uint64{40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200}
			if got := collectFixed(t, tr.Iterator(35, 205)); !eqU64(got, want) {
				t.Fatalf("window [35,205): got %v want %v", got, want)
			}
			// Edges on stored keys: start inclusive, end exclusive.
			want = []uint64{40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160, 170, 180, 190}
			if got := collectFixed(t, tr.Iterator(40, 200)); !eqU64(got, want) {
				t.Fatalf("window [40,200): got %v want %v", got, want)
			}
			wantRev := make([]uint64, len(want))
			for i, k := range want {
				wantRev[len(want)-1-i] = k
			}
			if got := collectFixed(t, tr.ReverseIterator(40, 200)); !eqU64(got, wantRev) {
				t.Fatalf("reverse window [40,200): got %v want %v", got, wantRev)
			}

			// Reverse with bounded start, unbounded end.
			want = nil
			for k := uint64(400); k >= 380; k -= 10 {
				want = append(want, k)
			}
			if got := collectFixed(t, tr.ReverseIterator(380, 0)); !eqU64(got, want) {
				t.Fatalf("reverse [380,∞): got %v want %v", got, want)
			}

			// Max-key edge: fixed keys at the top of the u64 range must not
			// wrap during forward stepping (nextAfter saturates).
			top := ^uint64(0)
			for _, k := range []uint64{top, top - 1, top - 2} {
				if err := tr.Insert(k, k*10); err != nil {
					t.Fatal(err)
				}
			}
			if got := collectFixed(t, tr.Iterator(top-2, 0)); !eqU64(got, []uint64{top - 2, top - 1, top}) {
				t.Fatalf("top-of-range window: got %v", got)
			}
		})
	}
}

// TestIteratorDomainsVar mirrors the edge-domain checks for byte-string keys
// (nil edges mean unbounded) on both controllers.
func TestIteratorDomainsVar(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		name := map[bool]string{false: "st", true: "occ"}[concurrent]
		t.Run(name, func(t *testing.T) {
			tr := newVarIterTree(t, concurrent)

			if it := tr.Iterator(nil, nil); it.Valid() {
				t.Fatal("iterator over empty tree is Valid")
			}
			if it := tr.ReverseIterator(nil, nil); it.Valid() {
				t.Fatal("reverse iterator over empty tree is Valid")
			}

			var keys []string
			for i := 0; i < 40; i++ {
				k := fmt.Sprintf("key-%03d", i)
				if err := tr.Insert([]byte(k), val8(uint64(i))); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, k)
			}
			rev := make([]string, len(keys))
			for i, k := range keys {
				rev[len(keys)-1-i] = k
			}

			if got := collectVar(t, tr.Iterator(nil, nil)); !eqStr(got, keys) {
				t.Fatalf("full forward: got %v want %v", got, keys)
			}
			if got := collectVar(t, tr.ReverseIterator(nil, nil)); !eqStr(got, rev) {
				t.Fatalf("full reverse: got %v want %v", got, rev)
			}

			if it := tr.Iterator([]byte("key-010"), []byte("key-010")); it.Valid() {
				t.Fatal("start == end window is non-empty")
			}
			if it := tr.Iterator([]byte("zzz"), nil); it.Valid() {
				t.Fatalf("start past max: got %q", it.Key())
			}

			// [key-005, key-009): end exclusive.
			want := []string{"key-005", "key-006", "key-007", "key-008"}
			if got := collectVar(t, tr.Iterator([]byte("key-005"), []byte("key-009"))); !eqStr(got, want) {
				t.Fatalf("window: got %v want %v", got, want)
			}
			wantRev := []string{"key-008", "key-007", "key-006", "key-005"}
			if got := collectVar(t, tr.ReverseIterator([]byte("key-005"), []byte("key-009"))); !eqStr(got, wantRev) {
				t.Fatalf("reverse window: got %v want %v", got, wantRev)
			}

			// Reverse from nil end with bounded start.
			if got := collectVar(t, tr.ReverseIterator([]byte("key-037"), nil)); !eqStr(got, []string{"key-039", "key-038", "key-037"}) {
				t.Fatalf("reverse [key-037,∞): got %v", got)
			}

			// The iterator must not alias the caller's edge slices.
			edge := []byte("key-005")
			it := tr.Iterator(edge, nil)
			edge[4] = '9'
			if !it.Valid() || string(it.Key()) != "key-005" {
				t.Fatalf("mutating the caller's edge slice moved the window: at %q", it.Key())
			}
			it.Close()
		})
	}
}

// TestIteratorSplitMidIteration parks an iterator on a leaf, splits that
// leaf underneath it, and checks the continuation: nothing ahead of the
// cursor is skipped or double-emitted, including the newly inserted keys.
func TestIteratorSplitMidIteration(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		name := map[bool]string{false: "st", true: "occ"}[concurrent]
		t.Run(name, func(t *testing.T) {
			tr := newFixedIterTree(t, concurrent)
			for k := uint64(10); k <= 80; k += 10 { // exactly one full leaf (cap 8)
				if err := tr.Insert(k, k*10); err != nil {
					t.Fatal(err)
				}
			}
			it := tr.Iterator(0, 0)
			if !it.Valid() || it.Key() != 10 {
				t.Fatalf("positioned at %d, want 10", it.Key())
			}
			if !it.Next() || it.Key() != 20 {
				t.Fatalf("second key %d, want 20", it.Key())
			}
			// Split the leaf the iterator is parked on.
			for _, k := range []uint64{11, 12, 13, 14, 15} {
				if err := tr.Insert(k, k*10); err != nil {
					t.Fatal(err)
				}
			}
			// Everything live and > 20 must now appear, in order.
			want := []uint64{30, 40, 50, 60, 70, 80}
			var got []uint64
			for it.Next() {
				got = append(got, it.Key())
			}
			it.Close()
			if !eqU64(got, want) {
				t.Fatalf("continuation after split: got %v want %v", got, want)
			}

			// Reverse flavor: park at 80, 70 then split again below the cursor.
			rit := tr.ReverseIterator(0, 0)
			if !rit.Valid() || rit.Key() != 80 {
				t.Fatalf("reverse positioned at %d, want 80", rit.Key())
			}
			if !rit.Next() || rit.Key() != 70 {
				t.Fatalf("reverse second key %d, want 70", rit.Key())
			}
			for _, k := range []uint64{41, 42, 43} {
				if err := tr.Insert(k, k*10); err != nil {
					t.Fatal(err)
				}
			}
			want = []uint64{60, 50, 43, 42, 41, 40, 30, 20, 15, 14, 13, 12, 11, 10}
			got = nil
			for rit.Next() {
				got = append(got, rit.Key())
			}
			rit.Close()
			if !eqU64(got, want) {
				t.Fatalf("reverse continuation after split: got %v want %v", got, want)
			}
		})
	}
}

// TestIteratorDeleteMidIteration deletes keys — including a whole leaf,
// which unlinks it (single-threaded) or marks its handle dead (concurrent) —
// while an iterator is parked on or before it.
func TestIteratorDeleteMidIteration(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		name := map[bool]string{false: "st", true: "occ"}[concurrent]
		t.Run(name, func(t *testing.T) {
			tr := newFixedIterTree(t, concurrent)
			for k := uint64(10); k <= 320; k += 10 { // four full leaves
				if err := tr.Insert(k, k*10); err != nil {
					t.Fatal(err)
				}
			}
			it := tr.Iterator(0, 0)
			if !it.Next() || it.Key() != 20 {
				t.Fatalf("at %d, want 20", it.Key())
			}
			// Delete the entire second leaf (keys 90..160) plus a key on the
			// iterator's current leaf ahead of the cursor.
			for k := uint64(90); k <= 160; k += 10 {
				if ok, err := tr.Delete(k); err != nil || !ok {
					t.Fatalf("delete %d: %v %v", k, ok, err)
				}
			}
			if ok, err := tr.Delete(40); err != nil || !ok {
				t.Fatalf("delete 40: %v %v", ok, err)
			}
			var got []uint64
			for it.Next() {
				got = append(got, it.Key())
			}
			it.Close()
			var want []uint64
			for k := uint64(30); k <= 320; k += 10 {
				if k == 40 || (k >= 90 && k <= 160) {
					continue
				}
				want = append(want, k)
			}
			if !eqU64(got, want) {
				t.Fatalf("continuation after deletes: got %v want %v", got, want)
			}

			// Reverse: park above a leaf, delete it, continue down.
			rit := tr.ReverseIterator(0, 0)
			if !rit.Valid() || rit.Key() != 320 {
				t.Fatalf("reverse at %d, want 320", rit.Key())
			}
			for k := uint64(170); k <= 240; k += 10 {
				if ok, err := tr.Delete(k); err != nil || !ok {
					t.Fatalf("delete %d: %v %v", k, ok, err)
				}
			}
			want = nil
			for k := uint64(310); k >= 10; k -= 10 {
				if k == 40 || (k >= 90 && k <= 240) {
					continue
				}
				want = append(want, k)
			}
			got = nil
			for rit.Next() {
				got = append(got, rit.Key())
			}
			rit.Close()
			if !eqU64(got, want) {
				t.Fatalf("reverse continuation after leaf delete: got %v want %v", got, want)
			}
		})
	}
}

// TestIteratorUpdateMidIteration checks that an update behind the cursor is
// invisible and one ahead of the cursor is observed exactly once with the
// new value.
func TestIteratorUpdateMidIteration(t *testing.T) {
	tr := newFixedIterTree(t, false)
	for k := uint64(10); k <= 160; k += 10 {
		if err := tr.Insert(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	it := tr.Iterator(0, 0)
	it.Next() // at 20
	if ok, err := tr.Update(10, 1); err != nil || !ok {
		t.Fatal("update 10")
	}
	if ok, err := tr.Update(30, 999); err != nil || !ok {
		t.Fatal("update 30")
	}
	if !it.Next() || it.Key() != 30 || it.Value() != 999 {
		t.Fatalf("after update: key %d value %d, want 30/999", it.Key(), it.Value())
	}
	n := 1
	for it.Next() {
		n++
	}
	it.Close()
	if n != 14 { // 30..160
		t.Fatalf("emitted %d keys after cursor 20, want 14", n)
	}
}

// TestIteratorFileBackedRecovery is the recovery-interplay check of the
// issue: build a tree in a real arena file, crash it mid-operation
// (injected persist failure + abandoned mmap, the kill -9 shape), reopen
// the file, and verify full forward and reverse iteration matches the map
// oracle byte-for-byte.
func TestIteratorFileBackedRecovery(t *testing.T) {
	t.Run("fixed", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "arena.fpt")
		pool, recovered, err := scm.OpenFile(path, 16<<20, scm.LatencyConfig{CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if recovered {
			t.Fatal("fresh arena file reported recovered")
		}
		tr, err := Create(pool, Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		oracle := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 600; i++ {
			k := uint64(rng.Intn(200)) + 1
			if rng.Intn(4) == 0 {
				if _, err := tr.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(oracle, k)
			} else {
				if err := tr.Upsert(k, k*7); err != nil {
					t.Fatal(err)
				}
				oracle[k] = k * 7
			}
		}
		// Crash during an insert of a brand-new key: after recovery the key
		// is either fully present or fully absent (p-atomic bitmap commit).
		const inflight = uint64(100000)
		pool.FailAfterFlushes(2)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("injected crash did not fire")
				}
			}()
			_ = tr.Insert(inflight, inflight*7)
		}()
		// Abandon the mmap without Close: kill -9 semantics.
		pool2, recovered, err := scm.OpenFile(path, 0, scm.LatencyConfig{CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !recovered {
			t.Fatal("arena abandoned without Close reported clean")
		}
		tr2, err := Open(pool2)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr2.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if _, ok := tr2.Find(inflight); ok {
			oracle[inflight] = inflight * 7
		}
		var want []uint64
		for k := range oracle {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []uint64
		for it := tr2.Iterator(0, 0); it.Valid(); it.Next() {
			if it.Value() != oracle[it.Key()] {
				t.Fatalf("key %d: value %d, oracle %d", it.Key(), it.Value(), oracle[it.Key()])
			}
			got = append(got, it.Key())
		}
		if !eqU64(got, want) {
			t.Fatalf("forward iteration after file recovery: got %d keys, want %d", len(got), len(want))
		}
		got = nil
		for it := tr2.ReverseIterator(0, 0); it.Valid(); it.Next() {
			got = append(got, it.Key())
		}
		for i, j := 0, len(got)-1; i < j; i, j = i+1, j-1 {
			got[i], got[j] = got[j], got[i]
		}
		if !eqU64(got, want) {
			t.Fatalf("reverse iteration after file recovery: got %d keys, want %d", len(got), len(want))
		}
		pool2.Close()
	})

	// The in-flight insert dies inside whichever write path its key length
	// selects: a pointer key at its third flush (inside the key-block
	// allocation), an inline key at its first (the slot line) — a two-flush
	// insert never reaches a third. The tree under both holds keys of both
	// representations.
	varCase := func(t *testing.T, inflight string, failAt int64) {
		path := filepath.Join(t.TempDir(), "arena.fpt")
		pool, _, err := scm.OpenFile(path, 16<<20, scm.LatencyConfig{CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := CreateVar(pool, Config{LeafCap: 8, InnerFanout: 4, GroupSize: 4, ValueSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		oracle := map[string]uint64{}
		rng := rand.New(rand.NewSource(43))
		for i := 0; i < 400; i++ {
			k := fmt.Sprintf("k%04d", rng.Intn(120))
			if k[4]%3 == 0 {
				k += "-behind-a-key-pointer"
			}
			if rng.Intn(4) == 0 {
				if _, err := tr.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(oracle, k)
			} else {
				if err := tr.Upsert([]byte(k), val8(uint64(i))); err != nil {
					t.Fatal(err)
				}
				oracle[k] = uint64(i)
			}
		}
		pool.FailAfterFlushes(failAt)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("injected crash did not fire")
				}
			}()
			_ = tr.Insert([]byte(inflight), val8(1))
		}()
		pool2, recovered, err := scm.OpenFile(path, 0, scm.LatencyConfig{CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !recovered {
			t.Fatal("arena abandoned without Close reported clean")
		}
		tr2, err := OpenVar(pool2)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr2.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if _, ok := tr2.Find([]byte(inflight)); ok {
			oracle[inflight] = 1
		}
		var want []string
		for k := range oracle {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		for it := tr2.Iterator(nil, nil); it.Valid(); it.Next() {
			if !bytes.Equal(it.Value(), val8(oracle[string(it.Key())])) {
				t.Fatalf("key %q: value %x, oracle %x", it.Key(), it.Value(), val8(oracle[string(it.Key())]))
			}
			got = append(got, string(it.Key()))
		}
		if !eqStr(got, want) {
			t.Fatalf("forward iteration after file recovery: got %d keys, want %d", len(got), len(want))
		}
		got = nil
		for it := tr2.ReverseIterator(nil, nil); it.Valid(); it.Next() {
			got = append(got, string(it.Key()))
		}
		for i, j := 0, len(got)-1; i < j; i, j = i+1, j-1 {
			got[i], got[j] = got[j], got[i]
		}
		if !eqStr(got, want) {
			t.Fatalf("reverse iteration after file recovery: got %d keys, want %d", len(got), len(want))
		}
		pool2.Close()
	}
	t.Run("var", func(t *testing.T) {
		t.Run("pointer-key", func(t *testing.T) { varCase(t, "zzz-inflight-behind-a-pointer", 3) })
		t.Run("inline-key", func(t *testing.T) { varCase(t, "zzz-inflight", 1) })
	})
}

// TestRangeReadLines pins what a range read costs each leaf it visits, on a
// cold cache: the header line that holds the bitmap and every line holding
// part of a valid slot's key or value are missed exactly once, and the pool
// is accessed at most once for the bitmap plus once per maximal run of lines
// in each slot array (and, on the single-threaded engine, once per sibling
// pointer it steps along). A gap is punched into every leaf's bitmap so that
// runs split. The expected counts are derived from the bitmaps and the
// layout, for one ScanN and one Iterator pass over the same window, on a
// fixed tree (16-byte slots), a PTree (a key array that shares the header
// line and a value array that shares the key array's last line) and a var
// tree (16-byte keys, 32-byte slots).
func TestRangeReadLines(t *testing.T) {
	t.Run("fixed", func(t *testing.T) {
		pool := scm.NewPool(16<<20, scm.LatencyConfig{})
		tr, err := CCreate(pool, Config{LeafCap: 56})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 2000; i++ {
			if err := tr.Insert(i*0x9E3779B97F4A7C15, i); err != nil {
				t.Fatal(err)
			}
		}
		lay := newFixedLayoutV(56, VariantFPTree)
		rangeReadLines(t, tr.engine, pool, func(leaf uint64, s int) (uint64, uint64) { return lay.keyOff(leaf, s), 16 })
	})
	t.Run("ptree", func(t *testing.T) {
		pool := scm.NewPool(16<<20, scm.LatencyConfig{})
		tr, err := Create(pool, Config{LeafCap: 56, Variant: VariantPTree})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 2000; i++ {
			if err := tr.Insert(i*0x9E3779B97F4A7C15, i); err != nil {
				t.Fatal(err)
			}
		}
		lay := newFixedLayoutV(56, VariantPTree)
		rangeReadLines(t, tr.engine, pool,
			func(leaf uint64, s int) (uint64, uint64) { return lay.keyOff(leaf, s), 8 },
			func(leaf uint64, s int) (uint64, uint64) { return lay.valOff(leaf, s), 8 })
	})
	t.Run("var", func(t *testing.T) {
		pool := scm.NewPool(16<<20, scm.LatencyConfig{})
		tr, err := CCreateVar(pool, Config{LeafCap: 56, ValueSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 2000; i++ {
			if err := tr.Insert([]byte(fmt.Sprintf("%016x", i*0x9E3779B97F4A7C15)), val8(i)); err != nil {
				t.Fatal(err)
			}
		}
		lay := newVarLayoutV(56, 8, VariantFPTree)
		if lay.slotSize != 32 {
			t.Fatalf("slot of %d bytes, want 32", lay.slotSize)
		}
		rangeReadLines(t, tr.engine, pool, func(leaf uint64, s int) (uint64, uint64) { return lay.slotOff(leaf, s), lay.slotSize })
	})
}

// rangeReadLines is TestRangeReadLines on one quiesced tree. Each of arrays is
// one slot array of the leaf, read by runs of its own: array(leaf, s) is the
// byte range slot s holds in it.
func rangeReadLines[K, V any](t *testing.T, e *engine[K, V], pool *scm.Pool, arrays ...func(leaf uint64, s int) (off, size uint64)) {
	const minKeys = 100
	valid := func(bm uint64, s int) bool { return bm&(1<<s) != 0 }
	lines := func(array func(uint64, int) (uint64, uint64), leaf uint64, s int) (first, last uint64) {
		off, size := array(leaf, s)
		return off / scm.LineSize, (off + size - 1) / scm.LineSize
	}
	var leaves []uint64
	for p := e.leafList.first(); !p.IsNull(); p = e.leafList.after(p.Offset) {
		leaves = append(leaves, p.Offset)
	}
	// The gap: every valid slot on the third line of a leaf's first array is
	// deleted.
	for _, leaf := range leaves {
		first, _ := lines(arrays[0], leaf, 0)
		gap := first + 2
		bm := e.leafBitmap(leaf)
		var victims []K
		for s := 0; s < e.sh.cap; s++ {
			if lo, hi := lines(arrays[0], leaf, s); valid(bm, s) && lo <= gap && gap <= hi {
				victims = append(victims, e.cdc.slotKey(leaf, s))
			}
		}
		for _, k := range victims {
			if ok, err := e.Delete(k); !ok || err != nil {
				t.Fatal(ok, err)
			}
		}
	}
	// The first leaves that hold more than minKeys keys, and what each costs.
	var keys []K
	var visited, split, wantMisses, maxLoads uint64
	for _, leaf := range leaves {
		if len(keys) > minKeys {
			break
		}
		visited++
		bm := e.leafBitmap(leaf)
		for s := 0; s < e.sh.cap; s++ {
			if valid(bm, s) {
				keys = append(keys, e.cdc.slotKey(leaf, s))
			}
		}
		touched := map[uint64]bool{(leaf + e.sh.offBitmap) / scm.LineSize: true}
		runs := uint64(0)
		for _, array := range arrays {
			var last uint64
			open := false
			for s := 0; s < e.sh.cap; s++ {
				if !valid(bm, s) {
					continue
				}
				lo, hi := lines(array, leaf, s)
				if !open || lo > last+1 {
					runs++
				}
				open, last = true, hi
				for l := lo; l <= hi; l++ {
					touched[l] = true
				}
			}
		}
		if runs > uint64(len(arrays)) {
			split++
		}
		wantMisses += uint64(len(touched))
		maxLoads += 1 + runs
	}
	if split == 0 {
		t.Fatal("no visited leaf has a split run of slot lines")
	}
	slices.SortFunc(keys, func(a, b K) int {
		switch {
		case e.cdc.less(a, b):
			return -1
		case e.cdc.less(b, a):
			return 1
		}
		return 0
	})
	// The window ends one key short of the last visited leaf's largest, so a
	// pass learns in that leaf that the window is over instead of reading
	// the next leaf to find out.
	n := len(keys) - 1
	end, _ := e.cdc.nextAfter(keys[n-1])
	read := func(name string, run func(emit func(K))) {
		pool.Crash() // nothing is dirty: this only empties the simulated cache
		st := pool.Stats()
		m0, r0 := st.ReadMisses.Load(), st.Reads.Load()
		var got []K
		run(func(k K) { got = append(got, k) })
		misses, loads := st.ReadMisses.Load()-m0, st.Reads.Load()-r0
		if len(got) != n {
			t.Fatalf("%s returned %d keys, want %d", name, len(got), n)
		}
		for i, k := range got {
			if e.cdc.less(k, keys[i]) || e.cdc.less(keys[i], k) {
				t.Fatalf("%s: key %d is %v, want %v", name, i, k, keys[i])
			}
		}
		if misses != wantMisses {
			t.Errorf("%s: %d misses, want %d (the header line and the valid slots' key and value lines, per visited leaf)", name, misses, wantMisses)
		}
		if loads > maxLoads {
			t.Errorf("%s: %d pool loads, want at most %d (the bitmap plus one per run in each slot array, per visited leaf)", name, loads, maxLoads)
		}
		t.Logf("%s: %d misses, %d loads (bound %d) over %d leaves, %d with a split run", name, misses, loads, maxLoads, visited, split)
	}
	read("ScanN", func(emit func(K)) {
		for _, kv := range (&Index[K, V]{e}).ScanN(keys[0], n) {
			emit(kv.Key)
		}
	})
	read("Iterator", func(emit func(K)) {
		for it := e.iterator(bound[K]{}, bound[K]{end, true}, false); it.Valid(); it.Next() {
			emit(it.Key())
		}
	})
}
