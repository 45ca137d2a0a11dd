package scm

import (
	"encoding/binary"
	"fmt"
	"strings"

	"fptree/internal/obs"
)

// statsEntries enumerates the counters of s in registration order: the one
// table behind the registry series and the STAT lines of the memcached
// `stats` command (the drift test pins Stats fields against both).
func statsEntries(s *Stats) []struct {
	suffix string
	help   string
	src    interface{ Load() uint64 }
} {
	return []struct {
		suffix string
		help   string
		src    interface{ Load() uint64 }
	}{
		{"reads_total", "SCM load operations of any size", &s.Reads},
		{"writes_total", "SCM store operations of any size", &s.Writes},
		{"read_hits_total", "line accesses served by the simulated CPU cache", &s.ReadHits},
		{"read_misses_total", "line accesses that missed the simulated cache and paid SCM read latency", &s.ReadMisses},
		{"flushes_total", "cache-line write-backs (CLFLUSH equivalents)", &s.Flushes},
		{"fences_total", "memory fences (SFENCE/MFENCE equivalents)", &s.Fences},
		{"allocs_total", "persistent allocations", &s.Allocs},
		{"frees_total", "persistent deallocations", &s.Frees},
		{"bytes_flushed_total", "payload bytes made durable", &s.BytesFlushed},
		{"syncs_total", "arena-file syncs (msync/fdatasync equivalents)", &s.Syncs},
		{"sync_nanos_total", "wall-clock nanoseconds spent in arena-file syncs", &s.SyncNanos},
	}
}

// StatNames lists the counters under their memcached STAT names, in table
// order: the registry suffix without "_total" ("reads", "sync_nanos").
func StatNames() []string {
	var probe Stats
	entries := statsEntries(&probe)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = strings.TrimSuffix(e.suffix, "_total")
	}
	return names
}

// RegisterMetrics exposes the counters in s on reg under the given name
// prefix (e.g. "scm"). The registered metrics read the live atomics, so a
// snapshot of reg observes exactly what s.Snapshot would.
func (s *Stats) RegisterMetrics(reg *obs.Registry, prefix string) {
	for _, e := range statsEntries(s) {
		reg.CounterFunc(fmt.Sprintf("%s_%s", prefix, e.suffix), e.help, e.src.Load)
	}
}

// RegisterMetrics exposes the pool's activity counters and capacity gauges on
// reg under the given prefix. The allocated-bytes gauge reads the bump pointer
// from the cache view directly so a metrics scrape does not itself count as
// SCM traffic (and cannot trip a crash fail-point).
func (p *Pool) RegisterMetrics(reg *obs.Registry, prefix string) {
	p.stats.RegisterMetrics(reg, prefix)
	reg.GaugeFunc(prefix+"_pool_size_bytes", "arena capacity in bytes",
		func() float64 { return float64(len(p.mem)) })
	reg.GaugeFunc(prefix+"_pool_allocated_bytes", "bytes claimed by the bump allocator",
		func() float64 { return float64(binary.LittleEndian.Uint64(p.mem[offBump:])) })
}

// RegisterPoolsMetrics exposes a fleet of pools on reg: each pool registers
// through its shard view exactly what Pool.RegisterMetrics gives a lone pool,
// so every series is there per shard (`scm_flushes_total{shard="2"}`) and the
// registry derives the unlabeled fleet total under the same name, whatever
// the shard count.
func RegisterPoolsMetrics(reg *obs.Registry, prefix string, pools []*Pool) {
	for i, p := range pools {
		p.RegisterMetrics(reg.Shard(i), prefix)
	}
}
