package scm

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func newTestPool(t *testing.T) *Pool {
	t.Helper()
	return NewPool(1<<20, LatencyConfig{CacheBytes: -1})
}

func TestReadWriteRoundTrip(t *testing.T) {
	p := newTestPool(t)
	off := uint64(headerSize)
	p.WriteU64(off, 0xdeadbeefcafef00d)
	if got := p.ReadU64(off); got != 0xdeadbeefcafef00d {
		t.Fatalf("ReadU64 = %#x", got)
	}
	p.WriteBytes(off+64, []byte("hello scm"))
	if got := p.ReadBytes(off+64, 9); string(got) != "hello scm" {
		t.Fatalf("ReadBytes = %q", got)
	}
	if !p.EqualBytes(off+64, []byte("hello scm")) {
		t.Fatal("EqualBytes mismatch")
	}
	pp := PPtr{ArenaID: 7, Offset: 1234}
	p.WritePPtr(off+128, pp)
	if got := p.ReadPPtr(off + 128); got != pp {
		t.Fatalf("ReadPPtr = %v", got)
	}
}

func TestCrashDiscardsUnflushedWrites(t *testing.T) {
	p := newTestPool(t)
	off := uint64(headerSize)
	p.WriteU64(off, 111)
	p.Persist(off, 8)
	p.WriteU64(off, 222) // never flushed
	p.WriteU64(off+LineSize, 333)
	p.Crash()
	if got := p.ReadU64(off); got != 111 {
		t.Fatalf("flushed value lost or dirty survived: got %d, want 111", got)
	}
	if got := p.ReadU64(off + LineSize); got != 0 {
		t.Fatalf("unflushed line survived crash: got %d", got)
	}
}

func TestPersistIsLineGranular(t *testing.T) {
	p := newTestPool(t)
	off := uint64(headerSize)
	p.WriteU64(off, 1)
	p.WriteU64(off+LineSize, 2)
	p.Persist(off, 8) // only first line
	p.Crash()
	if got := p.ReadU64(off); got != 1 {
		t.Fatalf("first line: got %d", got)
	}
	if got := p.ReadU64(off + LineSize); got != 0 {
		t.Fatalf("second line should be lost: got %d", got)
	}
}

func TestPersistSpanningLines(t *testing.T) {
	p := newTestPool(t)
	off := uint64(headerSize + LineSize - 8)
	p.WriteU64(off, 42)
	p.WriteU64(off+8, 43)
	p.Persist(off, 16)
	p.Crash()
	if p.ReadU64(off) != 42 || p.ReadU64(off+8) != 43 {
		t.Fatal("spanning persist lost data")
	}
}

func TestPPtrNull(t *testing.T) {
	if !(PPtr{}).IsNull() {
		t.Fatal("zero PPtr should be null")
	}
	if (PPtr{ArenaID: 1, Offset: 8}).IsNull() {
		t.Fatal("non-zero PPtr should not be null")
	}
	if (PPtr{}).String() != "pnull" {
		t.Fatal("null PPtr string")
	}
}

// refCells allocates a block to hold persistent-pointer cells for tests, so
// cells never overlap blocks handed out later.
func refCells(t *testing.T, p *Pool) uint64 {
	t.Helper()
	ptr, err := p.Alloc(offRoot, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return ptr.Offset
}

func TestAllocWritesRefAndZeroes(t *testing.T) {
	p := newTestPool(t)
	refOff := refCells(t, p)
	ptr, err := p.Alloc(refOff, 128)
	if err != nil {
		t.Fatal(err)
	}
	if ptr.IsNull() {
		t.Fatal("null allocation")
	}
	if got := p.ReadPPtr(refOff); got != ptr {
		t.Fatalf("ref cell = %v, want %v", got, ptr)
	}
	if ptr.Offset%LineSize != 0 {
		t.Fatalf("block not line-aligned: %#x", ptr.Offset)
	}
	for i := uint64(0); i < 128; i += 8 {
		if v := p.ReadU64(ptr.Offset + i); v != 0 {
			t.Fatalf("block not zeroed at +%d: %#x", i, v)
		}
	}
}

func TestFreeNullsRefAndReuses(t *testing.T) {
	p := newTestPool(t)
	refOff := refCells(t, p)
	ptr, err := p.Alloc(refOff, 128)
	if err != nil {
		t.Fatal(err)
	}
	p.Free(refOff, 128)
	if got := p.ReadPPtr(refOff); !got.IsNull() {
		t.Fatalf("ref not nulled after free: %v", got)
	}
	ptr2, err := p.Alloc(refOff, 128)
	if err != nil {
		t.Fatal(err)
	}
	if ptr2.Offset != ptr.Offset {
		t.Fatalf("free list not reused: got %#x, want %#x", ptr2.Offset, ptr.Offset)
	}
}

func TestFreeNullRefIsNoop(t *testing.T) {
	p := newTestPool(t)
	p.Free(refCells(t, p), 128) // ref cell holds null
	if p.Stats().Frees.Load() != 0 {
		t.Fatal("free of null pointer should be a no-op")
	}
}

func TestAllocOutOfMemory(t *testing.T) {
	p := NewPool(headerSize*2, LatencyConfig{CacheBytes: -1})
	if _, err := p.Alloc(offRoot, 1<<30); err != ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	// The intent must be cleared so later operations are unaffected.
	if _, err := p.Alloc(offRoot, 64); err != nil {
		t.Fatalf("small alloc after OOM failed: %v", err)
	}
}

func TestAllocDifferentClassesDoNotMix(t *testing.T) {
	p := newTestPool(t)
	base := refCells(t, p)
	ref1, ref2 := base, base+16
	a, _ := p.Alloc(ref1, 64)
	p.Free(ref1, 64)
	b, err := p.Alloc(ref2, 128) // different class: must not reuse a
	if err != nil {
		t.Fatal(err)
	}
	if b.Offset == a.Offset {
		t.Fatal("class mixing: 128B alloc reused 64B block")
	}
}

func TestLargeAllocBumpOnly(t *testing.T) {
	p := NewPool(4<<20, LatencyConfig{CacheBytes: -1})
	ref := refCells(t, p)
	big := uint64(maxClassSize + LineSize)
	a, err := p.Alloc(ref, big)
	if err != nil {
		t.Fatal(err)
	}
	p.Free(ref, big)
	if p.LargeFrees() != 1 {
		t.Fatalf("LargeFrees = %d, want 1", p.LargeFrees())
	}
	b, err := p.Alloc(ref, big)
	if err != nil {
		t.Fatal(err)
	}
	if a.Offset == b.Offset {
		t.Fatal("large blocks must not be reused")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "arena.img")
	p := newTestPool(t)
	ref := refCells(t, p)
	ptr, err := p.Alloc(ref, 256)
	if err != nil {
		t.Fatal(err)
	}
	p.WriteBytes(ptr.Offset, []byte("durable payload"))
	p.Persist(ptr.Offset, 15)
	p.SetRoot(ptr)
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	q, err := Load(path, LatencyConfig{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	q.Recover()
	root := q.Root()
	if root.Offset != ptr.Offset {
		t.Fatalf("root = %v, want offset %#x", root, ptr.Offset)
	}
	if got := q.ReadBytes(root.Offset, 15); string(got) != "durable payload" {
		t.Fatalf("payload = %q", got)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bogus.img")
	if err := writeFile(path, bytes.Repeat([]byte{0xff}, headerSize*2)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, LatencyConfig{}); err == nil {
		t.Fatal("Load accepted garbage image")
	}
	if err := writeFile(path, []byte("short")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, LatencyConfig{}); err == nil {
		t.Fatal("Load accepted short image")
	}
}

func TestCrashTornPreservesWordAtomicity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		p := newTestPool(t)
		off := uint64(headerSize)
		// Durable baseline.
		for i := uint64(0); i < 8; i++ {
			p.WriteU64(off+i*8, 0x1111111111111111)
		}
		p.Persist(off, 64)
		// Overwrite without flushing, then tear.
		for i := uint64(0); i < 8; i++ {
			p.WriteU64(off+i*8, 0x2222222222222222)
		}
		p.CrashTorn(rng)
		for i := uint64(0); i < 8; i++ {
			v := p.ReadU64(off + i*8)
			if v != 0x1111111111111111 && v != 0x2222222222222222 {
				t.Fatalf("torn word %d: %#x — 8-byte atomicity violated", i, v)
			}
		}
	}
}

// TestCrashWordsCommitsChosenPrefix pins the deterministic crash the torn
// enumerations are built on: dirty lines are offered in address order, once
// each, and exactly the chosen word-prefix of each becomes durable.
func TestCrashWordsCommitsChosenPrefix(t *testing.T) {
	p := newTestPool(t)
	base := uint64(headerSize)
	dirty := []uint64{base / LineSize, base/LineSize + 2, base/LineSize + 3}
	for _, l := range dirty {
		for i := uint64(0); i < 8; i++ {
			p.WriteU64(l*LineSize+i*8, 0x2222222222222222)
		}
	}
	keep := map[uint64]int{dirty[0]: 0, dirty[1]: 3, dirty[2]: 8}
	var seen []uint64
	p.CrashWords(func(l uint64) int { seen = append(seen, l); return keep[l] })
	if len(seen) != 3 || seen[0] != dirty[0] || seen[1] != dirty[1] || seen[2] != dirty[2] {
		t.Fatalf("dirty lines offered: %v, want %v", seen, dirty)
	}
	for _, l := range dirty {
		for i := 0; i < 8; i++ {
			want := uint64(0)
			if i < keep[l] {
				want = 0x2222222222222222
			}
			if v := p.ReadU64(l*LineSize + uint64(i)*8); v != want {
				t.Errorf("line %d word %d = %#x, want %#x", l, i, v, want)
			}
		}
	}
	p.CrashWords(func(uint64) int { t.Error("a second crash found a dirty line"); return 0 })
}

func TestStatsCountFlushesAndMisses(t *testing.T) {
	p := NewPool(1<<20, LatencyConfig{CacheBytes: -1}) // cache disabled: all accesses miss
	before := p.Stats().Snapshot()
	off := uint64(headerSize)
	p.WriteU64(off, 9)
	p.Persist(off, 8)
	p.ReadU64(off)
	d := p.Stats().Snapshot().Sub(before)
	if d.Writes != 1 || d.Reads != 1 {
		t.Fatalf("reads/writes = %d/%d", d.Reads, d.Writes)
	}
	if d.Flushes != 1 {
		t.Fatalf("flushes = %d", d.Flushes)
	}
	if d.ReadMisses < 2 {
		t.Fatalf("misses = %d, want >= 2 with cache disabled", d.ReadMisses)
	}
}

func TestCacheSimHitsAfterTouch(t *testing.T) {
	c := newCacheSim(0)
	if !c.touch(0) {
		t.Fatal("first touch should miss")
	}
	if c.touch(0) {
		t.Fatal("second touch should hit")
	}
	if c.touch(8) {
		t.Fatal("same line should hit")
	}
	c.evict(0)
	if !c.touch(0) {
		t.Fatal("touch after evict should miss")
	}
	c.reset()
	if !c.touch(0) {
		t.Fatal("touch after reset should miss")
	}
}

func TestCacheSimAssociativityEviction(t *testing.T) {
	c := newCacheSim(LineSize * cacheWays) // exactly one set
	if c.sets != 1 {
		t.Fatalf("sets = %d, want 1", c.sets)
	}
	for i := uint64(0); i < cacheWays+1; i++ {
		c.touch(i * LineSize)
	}
	// The set holds cacheWays lines; at least one of the first must be gone.
	misses := 0
	for i := uint64(0); i < cacheWays+1; i++ {
		if c.touch(i * LineSize) {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("no eviction in a full set")
	}
}

func TestClearPersistOfCleanLineIsFree(t *testing.T) {
	p := newTestPool(t)
	off := uint64(headerSize)
	p.WriteU64(off, 1)
	p.Persist(off, 8)
	before := p.Stats().Flushes.Load()
	p.Persist(off, 8) // line is clean now
	if got := p.Stats().Flushes.Load(); got != before {
		t.Fatalf("clean-line persist flushed %d lines", got-before)
	}
}

func writeFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}
