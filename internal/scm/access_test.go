package scm

import (
	"math/rand"
	"sync"
	"testing"
)

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
// simulated cache) and a Persist of one dirty line (write-back and evict).
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
}
