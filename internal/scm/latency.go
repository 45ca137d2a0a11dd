package scm

import (
	"sync"
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
	// LatencySleep accumulates the charged latency into a shared debt counter
	// and materializes it in batched time.Sleep calls of latencyBatch each.
	// Unlike LatencySpin — whose busy-waits serialize on a machine with fewer
	// cores than accessor goroutines — sleeping releases the CPU, so the
	// media waits of concurrent accessors overlap in wall-clock time exactly
	// as overlapping SCM accesses would on real hardware. Use it for
	// parallelism experiments (e.g. parallel recovery) on few-core hosts.
	// Single-threaded phases pay the same total latency as with LatencySpin,
	// in coarser steps; up to latencyBatch of residual debt per pool is never
	// slept, which is noise at measurement scale.
	LatencySleep
)

// latencyBatch is the debt threshold at which LatencySleep mode actually
// sleeps. It is chosen well above the OS timer slack (tens of microseconds)
// so oversleep stays a small relative error, yet small enough that waits
// interleave finely across workers.
const latencyBatch = 500 * time.Microsecond

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
// A hit only reads the set's tags (atomic loads, no lock), so goroutines
// hitting the cache share its lines read-only; a miss or an evict changes
// the set under that set's lock. A hit check that races a replacement in the
// same set sees the tag either before or after it, as a real lookup would.
type cacheSim struct {
	sets     int
	disabled bool
	tags     []atomic.Uint64 // sets × cacheWays entries; 0 = empty
	clock    []uint8         // round-robin replacement cursor per set, under the set's lock
	locks    [64]struct {    // striped by set index, a line each
		sync.Mutex
		_ [56]byte
	}
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
		clock: make([]uint8, sets),
	}
}

// find returns the way of set holding line, or -1.
func (c *cacheSim) find(set int, line uint64) int {
	ways := c.tags[set*cacheWays : set*cacheWays+cacheWays]
	for w := range ways {
		if ways[w].Load() == line {
			return w
		}
	}
	return -1
}

func (c *cacheSim) lockSet(set int) *sync.Mutex {
	lk := &c.locks[set&(len(c.locks)-1)].Mutex
	lk.Lock()
	return lk
}

// touch simulates an access to the line containing off and reports whether it
// missed the cache (and therefore must pay SCM read latency).
func (c *cacheSim) touch(off uint64) bool {
	if c.disabled {
		return true
	}
	line := off/LineSize + 1 // +1 so tag 0 means "empty way"
	set := int(line) & (c.sets - 1)
	if c.find(set, line) >= 0 {
		return false
	}
	lk := c.lockSet(set)
	if c.find(set, line) < 0 { // else another goroutine's miss just brought it in
		victim := int(c.clock[set]) % cacheWays
		c.clock[set]++
		c.tags[set*cacheWays+victim].Store(line)
	}
	lk.Unlock()
	return true
}

// evict removes the line containing off from the cache, modelling CLFLUSH
// (which both writes back and invalidates the line).
func (c *cacheSim) evict(off uint64) {
	if c.disabled {
		return
	}
	line := off/LineSize + 1
	set := int(line) & (c.sets - 1)
	lk := c.lockSet(set)
	if w := c.find(set, line); w >= 0 {
		c.tags[set*cacheWays+w].Store(0)
	}
	lk.Unlock()
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
