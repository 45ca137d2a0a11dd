package fptree

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fptree/internal/scm"
)

// Microbenchmarks for the benchstat comparison tracked in EXPERIMENTS.md:
// insert/find/scan on both key codecs, through the public API only, so
// the same binary-independent workload runs before and after core refactors.

func benchFixedTree(b *testing.B, n uint64) *Tree {
	b.Helper()
	tree, err := Create(Options{PoolSize: 256 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(1); k <= n; k++ {
		if err := tree.Insert(k, k); err != nil {
			b.Fatal(err)
		}
	}
	return tree
}

// seqKey is the var benchmarks' 16-byte key: its first 8 bytes are
// "key00000" for every i below 10^8, so every inner-node probe ties on the
// 8-byte separator prefix and compares the full key. hexKey is its scattered
// twin, the 16 hex digits of a bijective scramble of i, whose prefixes
// almost never tie.
func seqKey(i int) []byte { return []byte(fmt.Sprintf("key%013d", i)) }
func hexKey(i int) []byte { return []byte(fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15)) }

func benchVarTree(b *testing.B, n int, key func(int) []byte) *VarTree {
	b.Helper()
	tree, err := CreateVar(Options{PoolSize: 512 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tree.Insert(key(i), []byte("12345678")); err != nil {
			b.Fatal(err)
		}
	}
	return tree
}

func BenchmarkMicroInsertFixed(b *testing.B) {
	tree, err := Create(Options{PoolSize: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Insert(rng.Uint64()|1, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroFindFixed(b *testing.B) {
	const n = 100000
	tree := benchFixedTree(b, n)
	rng := rand.New(rand.NewSource(42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tree.Find(rng.Uint64()%n + 1); !ok {
			b.Fatal("missing key")
		}
	}
}

func BenchmarkMicroScanFixed(b *testing.B) {
	const n = 100000
	tree := benchFixedTree(b, n)
	rng := rand.New(rand.NewSource(42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := tree.ScanN(rng.Uint64()%n+1, 100)
		if len(got) == 0 {
			b.Fatal("empty scan")
		}
	}
}

// TestScanNAllocBound pins the allocation behaviour of the pre-sized ScanN
// paths so a regression back to per-call reflection sorting or unsized result
// slices fails loudly. The fixed codec returns values inline (a couple of
// slice headers per scan); the var codec inherently copies each key and value
// out of the arena, so its bound scales with the scan length.
func TestScanNAllocBound(t *testing.T) {
	fixed, err := Create(Options{PoolSize: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 10000; k++ {
		if err := fixed.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, func() { fixed.ScanN(500, 100) }); got > 8 {
		t.Errorf("fixed ScanN(·,100): %.1f allocs/op, want <= 8", got)
	}

	vt, err := CreateVar(Options{PoolSize: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := vt.Insert([]byte(fmt.Sprintf("key%013d", i)), []byte("12345678")); err != nil {
			t.Fatal(err)
		}
	}
	// One alloc per valid pair of each visited leaf, in the window or not (key
	// and value are copied out together), plus the batch: 143 on this tree.
	if got := testing.AllocsPerRun(100, func() { vt.ScanN([]byte("key0000000000500"), 100) }); got > 260 {
		t.Errorf("var ScanN(·,100): %.1f allocs/op, want <= 260", got)
	}
}

func BenchmarkMicroInsertVar(b *testing.B) {
	tree, err := CreateVar(Options{PoolSize: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Insert([]byte(fmt.Sprintf("key%013d", rng.Uint64())), []byte("12345678")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroFindVar(b *testing.B)    { benchMicroFindVar(b, seqKey) }
func BenchmarkMicroFindVarHex(b *testing.B) { benchMicroFindVar(b, hexKey) }

func benchMicroFindVar(b *testing.B, key func(int) []byte) {
	const n = 100000
	tree := benchVarTree(b, n, key)
	rng := rand.New(rand.NewSource(42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tree.Find(key(rng.Intn(n))); !ok {
			b.Fatal("missing key")
		}
	}
}

func BenchmarkMicroScanVar(b *testing.B) {
	const n = 100000
	tree := benchVarTree(b, n, seqKey)
	rng := rand.New(rand.NewSource(42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := tree.ScanN(seqKey(rng.Intn(n)), 100)
		if len(got) == 0 {
			b.Fatal("empty scan")
		}
	}
}

// BenchmarkPoolParallel runs the emulator's three primitives from every
// benchmark goroutine on ONE pool in count mode, each goroutine on lines (and
// pointer cells) of its own: what it measures is the pool's bookkeeping, and
// with -cpu 1,2 whether that bookkeeping is shared. ns/op is wall time over
// all goroutines' ops: from -cpu 1 to -cpu 2 it halves if the pool shares
// nothing (and the host has the cores), and rises if the pool serialises its
// users.
func BenchmarkPoolParallel(b *testing.B) {
	const window = 16 << 10 // bytes of the arena each goroutine works on
	setup := func(b *testing.B) (*scm.Pool, func() uint64) {
		pool := scm.NewPool(64<<20, scm.LatencyConfig{})
		root, err := pool.AllocRoot(16 << 20)
		if err != nil {
			b.Fatal(err)
		}
		var next atomic.Uint64
		b.ResetTimer()
		return pool, func() uint64 { return root.Offset + (next.Add(1)-1)*window }
	}
	b.Run("load-hit", func(b *testing.B) {
		pool, claim := setup(b)
		b.RunParallel(func(pb *testing.PB) {
			base := claim()
			for i := uint64(0); pb.Next(); i++ {
				pool.ReadU64(base + (i&1023)*8)
			}
		})
	})
	b.Run("persist-line", func(b *testing.B) {
		pool, claim := setup(b)
		b.RunParallel(func(pb *testing.PB) {
			base := claim()
			for i := uint64(0); pb.Next(); i++ {
				off := base + (i&255)*scm.LineSize
				pool.WriteU64(off, i)
				pool.Persist(off, 8)
			}
		})
	})
	b.Run("alloc-free", func(b *testing.B) {
		pool, claim := setup(b)
		b.RunParallel(func(pb *testing.PB) {
			base := claim()
			for i := uint64(0); pb.Next(); i++ {
				cell := base + (i&63)*scm.PPtrSize
				if _, err := pool.Alloc(cell, 128); err != nil {
					b.Error(err)
					return
				}
				pool.Free(cell, 128)
			}
		})
	})
}

// BenchmarkWriteMixGoroutines is the "one pool, N goroutines" measurement of
// EXPERIMENTS.md: the idx-write mix of the repository benchmark (Insert /
// Delete / Update / Find 30/30/20/20 over 16-byte keys, each goroutine on ids
// of its own, spin latency 300/300 ns) run by one goroutine, by two on one
// tree and pool, and by two with a tree and pool each. The last two execute
// the same op streams on trees of the same size, so their ratio is what
// sharing the pool costs. Every goroutine runs b.N ops; ops/s is the total.
func BenchmarkWriteMixGoroutines(b *testing.B) {
	const keys = 200000
	build := func(b *testing.B) *CVarTree {
		tree, err := CreateConcurrentVar(Options{PoolSize: 128 << 20})
		if err != nil {
			b.Fatal(err)
		}
		var buf [16]byte
		for id := uint64(0); id < keys; id++ {
			if err := tree.Insert(scatteredKey(&buf, id), []byte("12345678")); err != nil {
				b.Fatal(err)
			}
		}
		tree.Pool().SetLatency(scm.LatencySpin, 300*time.Nanosecond, 300*time.Nanosecond)
		return tree
	}
	// worker g owns the ids congruent to g mod 2: a window [tail, head) that
	// inserts at the head and deletes at the tail.
	worker := func(tree *CVarTree, g uint64, n int) error {
		rng := rand.New(rand.NewSource(int64(g) + 1))
		tail, head := g, keys+g
		var buf [16]byte
		val := []byte("abcdefgh")
		for i := 0; i < n; i++ {
			switch r := rng.Intn(100); {
			case r < 30:
				if err := tree.Insert(scatteredKey(&buf, head), val); err != nil {
					return err
				}
				head += 2
			case r < 60 && head-tail > 2:
				if ok, err := tree.Delete(scatteredKey(&buf, tail)); err != nil || !ok {
					return fmt.Errorf("delete id %d: %v %v", tail, ok, err)
				}
				tail += 2
			case r < 80:
				id := tail + 2*uint64(rng.Int63n(int64(head-tail)/2))
				if ok, err := tree.Update(scatteredKey(&buf, id), val); err != nil || !ok {
					return fmt.Errorf("update id %d: %v %v", id, ok, err)
				}
			default:
				id := tail + 2*uint64(rng.Int63n(int64(head-tail)/2))
				if _, ok := tree.Find(scatteredKey(&buf, id)); !ok {
					return fmt.Errorf("find id %d: missing", id)
				}
			}
		}
		return nil
	}
	for _, c := range []struct {
		name              string
		trees, goroutines int
	}{{"1g", 1, 1}, {"2g-shared", 1, 2}, {"2g-separate", 2, 2}} {
		b.Run(c.name, func(b *testing.B) {
			trees := make([]*CVarTree, c.trees)
			for i := range trees {
				trees[i] = build(b)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < c.goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					if err := worker(trees[g%c.trees], uint64(g), b.N); err != nil {
						b.Error(err)
					}
				}(g)
			}
			wg.Wait()
			b.ReportMetric(float64(c.goroutines*b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// scatteredKey writes id's 16-hex-digit key into buf, ids scattered over the
// key space.
func scatteredKey(buf *[16]byte, id uint64) []byte {
	x := id * 0x9E3779B97F4A7C15
	for i := range buf {
		buf[i] = "0123456789abcdef"[x>>60]
		x <<= 4
	}
	return buf[:]
}
