package scm

import (
	"sync/atomic"
	"time"

	"fptree/internal/obs"
)

// LatencyMode selects how the emulator charges SCM media latency.
type LatencyMode int

const (
	// LatencyCount only counts misses and flushes; no time is spent. Use it
	// in unit tests where determinism matters more than timing.
	LatencyCount LatencyMode = iota
	// LatencySpin busy-waits once per access for ReadLatency times the lines
	// it missed in the simulated cache, and once per Persist for
	// WriteLatency times the lines it wrote back, so wall-clock measurements
	// reflect the emulated medium. Use it in benchmarks.
	LatencySpin
)

// LatencyConfig describes the emulated SCM medium and the CPU cache in front
// of it. The zero value disables latency emulation entirely (counting only,
// zero latencies) which is the right default for correctness tests.
type LatencyConfig struct {
	Mode LatencyMode
	// ReadLatency is charged on every cache miss that reads SCM media.
	ReadLatency time.Duration
	// WriteLatency is charged on every cache-line write-back (flush).
	WriteLatency time.Duration
	// CacheBytes is the capacity of the simulated CPU cache in front of SCM.
	// 0 means the default of 4 MiB. Set to -1 to disable the cache entirely
	// (every access is a miss), which makes miss counts fully deterministic.
	CacheBytes int64
}

// DefaultCacheBytes is the simulated last-level cache capacity used when
// LatencyConfig.CacheBytes is zero.
const DefaultCacheBytes = 4 << 20

const cacheWays = 8

// cacheSim is a set-associative tag array emulating the CPU cache in front of
// SCM. It decides which accesses hit DRAM-speed cache and which pay the SCM
// media latency, mirroring how the paper's emulation platform exposes latency
// only on cache misses.
//
// It takes no lock. A hit only loads the set's tags. A miss claims its victim
// way with one Add on the set's round-robin cursor and stores its tag there;
// an evict clears, by compare-and-swap, every way that holds the line. Run by
// one goroutine this is the plain round-robin cache. Under concurrency two
// simultaneous misses on one line may both insert it, each in its own way, and
// two misses in one set may claim ways in either order; evict clears every
// copy, so a flushed line never survives as a hit. A lookup that races a
// replacement in the same set sees the tag either before or after it, as a
// real lookup would.
type cacheSim struct {
	sets     int
	disabled bool
	tags     []atomic.Uint64 // sets × cacheWays entries; 0 = empty
	clock    []atomic.Uint32 // round-robin replacement cursor per set
}

func newCacheSim(capacity int64) *cacheSim {
	if capacity < 0 {
		return &cacheSim{disabled: true}
	}
	if capacity == 0 {
		capacity = DefaultCacheBytes
	}
	sets := int(capacity / (LineSize * cacheWays))
	if sets < 1 {
		sets = 1
	}
	// Round down to a power of two so the set index is a mask.
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	return &cacheSim{
		sets:  sets,
		tags:  make([]atomic.Uint64, sets*cacheWays),
		clock: make([]atomic.Uint32, sets),
	}
}

// set returns the index of the set line maps to and that set's tags.
func (c *cacheSim) set(line uint64) (int, []atomic.Uint64) {
	set := int(line) & (c.sets - 1)
	return set, c.tags[set*cacheWays : set*cacheWays+cacheWays]
}

// touch simulates an access to the line containing off and reports whether it
// missed the cache (and therefore must pay SCM read latency).
func (c *cacheSim) touch(off uint64) bool {
	if c.disabled {
		return true
	}
	line := off/LineSize + 1 // +1 so tag 0 means "empty way"
	set, ways := c.set(line)
	for w := range ways {
		if ways[w].Load() == line {
			return false
		}
	}
	victim := (c.clock[set].Add(1) - 1) % cacheWays
	ways[victim].Store(line)
	return true
}

// evict removes the line containing off from the cache, modelling CLFLUSH
// (which both writes back and invalidates the line). It clears every way
// holding the line: concurrent misses may have inserted it twice.
func (c *cacheSim) evict(off uint64) {
	if c.disabled {
		return
	}
	line := off/LineSize + 1
	_, ways := c.set(line)
	for w := range ways {
		if ways[w].Load() == line {
			ways[w].CompareAndSwap(line, 0)
		}
	}
}

// reset empties the cache, as after a machine restart.
func (c *cacheSim) reset() {
	if c.disabled {
		return
	}
	for i := range c.tags {
		c.tags[i].Store(0)
	}
}

// epoch anchors spin's deadlines. time.Since of a time holding a monotonic
// reading reads only the monotonic clock, which costs less than time.Now's
// wall-and-monotonic pair.
var epoch = time.Now()

// spin busy-waits until d has passed on the monotonic clock. It deliberately
// avoids the Go scheduler (no time.Sleep) because emulated latencies are in
// the tens-to-hundreds of nanoseconds, far below timer resolution.
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Since(epoch) + d
	for time.Since(epoch) < deadline {
	}
}

// Stats aggregates emulator activity counters. The counters every load,
// store and persist adds to are striped by the address the counted access
// touched (statKey), so goroutines working on different parts of the arena do
// not share a counter line. The ones added to once per allocator operation or
// per file sync are plain atomics. All may be read while the pool is in use.
type Stats struct {
	Reads        obs.StripedCounter // SCM load operations (any size)
	Writes       obs.StripedCounter // SCM store operations (any size)
	ReadHits     obs.StripedCounter // line accesses served by the simulated cache
	ReadMisses   obs.StripedCounter // loads/stores that missed the simulated cache
	Flushes      obs.StripedCounter // cache-line write-backs (CLFLUSH equivalents)
	Fences       obs.StripedCounter // memory fences
	BytesFlushed obs.StripedCounter // payload bytes made durable
	Allocs       atomic.Uint64      // persistent allocations
	Frees        atomic.Uint64      // persistent deallocations
	Syncs        atomic.Uint64      // arena-file syncs (msync/fdatasync equivalents)
	SyncNanos    atomic.Uint64      // wall-clock nanoseconds spent in arena-file syncs
}

// FlushFence returns the current cumulative flush and fence counts. It is
// the span hook the tracing layer snapshots at phase boundaries to attribute
// persist/fence costs to an operation: the delta between two FlushFence calls
// is exact when one goroutine runs and an upper bound (all goroutines'
// activity) under concurrency.
func (s *Stats) FlushFence() (flushes, fences uint64) {
	return s.Flushes.Load(), s.Fences.Load()
}

// Snapshot returns a plain-struct copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Reads:        s.Reads.Load(),
		Writes:       s.Writes.Load(),
		ReadHits:     s.ReadHits.Load(),
		ReadMisses:   s.ReadMisses.Load(),
		Flushes:      s.Flushes.Load(),
		Fences:       s.Fences.Load(),
		Allocs:       s.Allocs.Load(),
		Frees:        s.Frees.Load(),
		BytesFlushed: s.BytesFlushed.Load(),
		Syncs:        s.Syncs.Load(),
		SyncNanos:    s.SyncNanos.Load(),
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	Reads        uint64
	Writes       uint64
	ReadHits     uint64
	ReadMisses   uint64
	Flushes      uint64
	Fences       uint64
	Allocs       uint64
	Frees        uint64
	BytesFlushed uint64
	Syncs        uint64
	SyncNanos    uint64
}

// Add returns the sum s + o, counter by counter — the aggregation the
// sharded server uses to report one stats block across shard pools.
func (s StatsSnapshot) Add(o StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Reads:        s.Reads + o.Reads,
		Writes:       s.Writes + o.Writes,
		ReadHits:     s.ReadHits + o.ReadHits,
		ReadMisses:   s.ReadMisses + o.ReadMisses,
		Flushes:      s.Flushes + o.Flushes,
		Fences:       s.Fences + o.Fences,
		Allocs:       s.Allocs + o.Allocs,
		Frees:        s.Frees + o.Frees,
		BytesFlushed: s.BytesFlushed + o.BytesFlushed,
		Syncs:        s.Syncs + o.Syncs,
		SyncNanos:    s.SyncNanos + o.SyncNanos,
	}
}

// Sub returns the delta s - o, counter by counter.
func (s StatsSnapshot) Sub(o StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Reads:        s.Reads - o.Reads,
		Writes:       s.Writes - o.Writes,
		ReadHits:     s.ReadHits - o.ReadHits,
		ReadMisses:   s.ReadMisses - o.ReadMisses,
		Flushes:      s.Flushes - o.Flushes,
		Fences:       s.Fences - o.Fences,
		Allocs:       s.Allocs - o.Allocs,
		Frees:        s.Frees - o.Frees,
		BytesFlushed: s.BytesFlushed - o.BytesFlushed,
		Syncs:        s.Syncs - o.Syncs,
		SyncNanos:    s.SyncNanos - o.SyncNanos,
	}
}
