package scm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestReadStridedMatchesReadInto pins ReadStrided to the per-block ReadInto
// loop it replaces: run on two clones of one pool, the two must pack the same
// bytes and move Reads, ReadHits and ReadMisses by the same amounts. The rows
// cover the wide kvserver slot (stride 152), a narrower one (40), blocks that
// share lines (16) and blocks that each straddle a line, under the default
// cache and under a one-set cache that evicts inside the read, where the
// order lines are touched in decides every later hit.
func TestReadStridedMatchesReadInto(t *testing.T) {
	base := uint64(headerSize)
	for _, cache := range []int64{0, LineSize * cacheWays} {
		src := NewPool(1<<20, LatencyConfig{CacheBytes: cache})
		data := make([]byte, 64<<10)
		rand.New(rand.NewSource(1)).Read(data)
		src.WriteBytes(base, data)
		for _, tc := range []struct {
			off, stride, width uint64
			n                  int
		}{
			{base + 40, 152, 24, 56}, // kvserver's wide slot: every cell but the first straddles or not by turns
			{base, 40, 24, 100},
			{base + 8, 16, 8, 200},  // four blocks a line
			{base + 4, 16, 16, 200}, // contiguous, each block straddling a quarter-line boundary
			{base + 56, 64, 16, 60}, // every block straddles a line
			{base + 1, 200, 130, 40},
		} {
			t.Run(fmt.Sprintf("cache%d/stride%d/width%d", cache, tc.stride, tc.width), func(t *testing.T) {
				a, b := src.Clone(), src.Clone()
				// Warm a few lines identically, so the read sees hits and misses.
				for _, p := range []*Pool{a, b} {
					for i := uint64(0); i < 16; i++ {
						p.ReadU8(tc.off + i*3*LineSize)
					}
				}
				got := make([]byte, uint64(tc.n)*tc.width)
				want := make([]byte, len(got))
				a0, b0 := a.Stats().Snapshot(), b.Stats().Snapshot()
				a.ReadStrided(tc.off, tc.stride, tc.width, tc.n, got)
				for i := 0; i < tc.n; i++ {
					b.ReadInto(tc.off+uint64(i)*tc.stride, want[uint64(i)*tc.width:][:tc.width])
				}
				if !bytes.Equal(got, want) {
					t.Fatal("ReadStrided packed other bytes than the ReadInto loop")
				}
				da, db := a.Stats().Snapshot().Sub(a0), b.Stats().Snapshot().Sub(b0)
				if da.Reads != db.Reads || da.ReadHits != db.ReadHits || da.ReadMisses != db.ReadMisses {
					t.Fatalf("ReadStrided counted reads/hits/misses %d/%d/%d, the ReadInto loop %d/%d/%d",
						da.Reads, da.ReadHits, da.ReadMisses, db.Reads, db.ReadHits, db.ReadMisses)
				}
				// The caches must be left the same too: every line hits or
				// misses alike on both afterwards.
				for l := tc.off / LineSize; l <= (tc.off+uint64(tc.n)*tc.stride)/LineSize; l++ {
					if ma, mb := a.cache.touch(l*LineSize), b.cache.touch(l*LineSize); ma != mb {
						t.Fatalf("line %d: miss %v after ReadStrided, %v after the ReadInto loop", l, ma, mb)
					}
				}
			})
		}
	}
}

// refCache is the cache simulator's specification: cacheWays ways a set, a
// line in set line mod sets, and a miss replacing the set's ways round robin.
type refCache struct {
	ways [][cacheWays]uint64
	next []int
}

func (r *refCache) touch(line uint64) bool {
	set := line % uint64(len(r.ways))
	for _, tag := range r.ways[set] {
		if tag == line+1 {
			return false
		}
	}
	r.ways[set][r.next[set]] = line + 1
	r.next[set] = (r.next[set] + 1) % cacheWays
	return true
}

func (r *refCache) evict(line uint64) {
	set := line % uint64(len(r.ways))
	for w, tag := range r.ways[set] {
		if tag == line+1 {
			r.ways[set][w] = 0
		}
	}
}

// TestCacheSimMatchesModel runs one seeded trace of touches and evicts over
// four sets through the simulator and the reference model: every touch must
// hit or miss alike. More distinct lines than ways map to each set, so the
// trace keeps replacing.
func TestCacheSimMatchesModel(t *testing.T) {
	const sets = 4
	c := newCacheSim(LineSize * cacheWays * sets)
	if c.sets != sets {
		t.Fatalf("sets = %d, want %d", c.sets, sets)
	}
	ref := &refCache{ways: make([][cacheWays]uint64, sets), next: make([]int, sets)}
	rng := rand.New(rand.NewSource(42))
	misses := 0
	for i := 0; i < 100000; i++ {
		line := uint64(rng.Intn(sets * cacheWays * 3))
		if rng.Intn(5) == 0 {
			c.evict(line * LineSize)
			ref.evict(line)
			continue
		}
		got, want := c.touch(line*LineSize+uint64(rng.Intn(LineSize))), ref.touch(line)
		if got != want {
			t.Fatalf("op %d, line %d: simulator miss=%v, model miss=%v", i, line, got, want)
		}
		if got {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("the trace never missed")
	}
}

// TestCacheSimConcurrentEvict runs rounds of four goroutines that start
// together and touch, and now and then evict, the same lines of two sets in
// the same order, so their misses on one line coincide and may each insert
// it. After every round an evict must leave no copy behind: the next touch of
// every line misses. An evict that cleared only the first copy fails this
// within a few rounds.
func TestCacheSimConcurrentEvict(t *testing.T) {
	const sets, lines = 2, 12 // six lines a set: duplicates fit beside them
	c := newCacheSim(LineSize * cacheWays * sets)
	for round := 0; round < 1000; round++ {
		var start, done sync.WaitGroup
		start.Add(1)
		for g := 0; g < 4; g++ {
			done.Add(1)
			go func(seed int64) {
				defer done.Done()
				rng := rand.New(rand.NewSource(seed))
				start.Wait()
				for i := 0; i < 4*lines; i++ {
					off := uint64(i%lines) * LineSize
					c.touch(off)
					if rng.Intn(4) == 0 {
						c.evict(off)
					}
				}
			}(int64(round*4 + g))
		}
		start.Done()
		done.Wait()
		for l := uint64(0); l < lines; l++ {
			c.evict(l * LineSize)
			if !c.touch(l * LineSize) {
				t.Fatalf("round %d: line %d hit right after its evict: a copy survived", round, l)
			}
		}
	}
}

// BenchmarkAccess measures the emulator's own cost per primitive, in
// LatencyCount mode so no media latency is charged: what is left is the
// cache simulator, the dirty bitmap and the stats counters. The rows are a
// ReadU64 that hits, a ReadU64 that misses (a walk over four times the
// simulated cache), a Persist of one dirty line (write-back and evict), and
// the 56-block strided read of a kvserver leaf's key cells, walked over
// leaves as the recovery scan does; ns/line divides that row by the lines it
// touches.
//
//	go test -run '^$' -bench Access ./internal/scm
func BenchmarkAccess(b *testing.B) {
	const span = 4 * DefaultCacheBytes
	p := NewPool(span+headerSize, LatencyConfig{})
	base := uint64(headerSize)
	b.Run("hit ReadU64", func(b *testing.B) {
		p.ReadU64(base)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.ReadU64(base)
		}
	})
	b.Run("miss ReadU64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.ReadU64(base + uint64(i)*LineSize%span)
		}
	})
	b.Run("Persist dirty line", func(b *testing.B) {
		const batch = 4096
		for done := 0; done < b.N; done += batch {
			n := min(batch, b.N-done)
			b.StopTimer()
			for i := 0; i < n; i++ {
				p.WriteU64(base+uint64(i)*LineSize, 1)
			}
			b.StartTimer()
			for i := 0; i < n; i++ {
				p.Persist(base+uint64(i)*LineSize, 8)
			}
		}
	})
	b.Run("ReadStrided 56x24B stride 152", func(b *testing.B) {
		const stride, width, n = 152, 24, 56
		leaf := uint64(stride * n)
		leaves := uint64(span) / leaf
		dst := make([]byte, width*n)
		s0 := p.Stats().Snapshot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.ReadStrided(base+uint64(i)%leaves*leaf, stride, width, n, dst)
		}
		b.StopTimer()
		d := p.Stats().Snapshot().Sub(s0)
		b.ReportMetric(float64(b.Elapsed())/float64(d.ReadHits+d.ReadMisses), "ns/line")
	})
}
