package bench

// YCSB-style workload suite (workloads A-F) over the concurrent FPTree.
// The mixes, request distributions and scan shape follow the original YCSB
// core workloads: A 50/50 read/update, B 95/5 read/update, C read-only,
// D read-latest with inserts, E short range scans with inserts, F
// read-modify-write — under scrambled-zipfian, latest or uniform key
// choosers. Workload E's scans verify every value they read, so a torn or
// stale pair fails the run.

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"fptree/internal/core"
	"fptree/internal/scm"
)

// YCSBConfig tunes a YCSB suite run.
type YCSBConfig struct {
	Workloads []string // subset of A..F; empty means all six
	Records   int      // preloaded records per workload
	Ops       int      // measured operations per workload
	Threads   int      // concurrent client goroutines
	ScanLen   int      // max entries per scan (workload E)
}

// ycsbSeed is the base RNG seed; goroutine t derives its own from it.
const ycsbSeed = 1

// YCSBResult is one workload's measurement.
type YCSBResult struct {
	Tree      string // FPTreeC
	Workload  string // ycsb-a .. ycsb-f
	Ops       int
	OpsPerSec float64
	P50NS     int64
	P99NS     int64
	Threads   int
	KeyDist   string // zipfian | latest | uniform
}

// ycsbMix is one workload's operation percentages (summing to 100) and
// request distribution.
type ycsbMix struct {
	name                            string
	read, update, insert, scan, rmw int
	dist                            string // zipfian | latest | uniform
}

var ycsbMixes = []ycsbMix{
	{"A", 50, 50, 0, 0, 0, "zipfian"},
	{"B", 95, 5, 0, 0, 0, "zipfian"},
	{"C", 100, 0, 0, 0, 0, "zipfian"},
	{"D", 95, 0, 5, 0, 0, "latest"},
	{"E", 0, 0, 5, 95, 0, "zipfian"},
	{"F", 50, 0, 0, 0, 50, "zipfian"},
}

// ycsbHash is SplitMix64's finalizer: a bijection on uint64, used both to
// scatter insertion-order indices into the key space and to scramble the
// zipfian chooser so the hot set is spread across the tree.
func ycsbHash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// ycsbKey maps record index i (insertion order) to its tree key.
func ycsbKey(i uint64) uint64 {
	k := ycsbHash(i + 1)
	if k == 0 {
		k = 0x9E3779B97F4A7C15
	}
	return k
}

// ycsbVal is the canonical value of a key; scans verify it (workload E has
// no updates, so every live value is canonical there).
func ycsbVal(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 }

// ycsbChooser picks record indices under one request distribution. Each
// client goroutine owns one (rand.Zipf is not goroutine-safe); the shared
// record count is read atomically so inserts by other threads become
// visible targets.
type ycsbChooser struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	dist  string
	count *atomic.Uint64
}

func newYCSBChooser(seed int64, dist string, maxRecords uint64, count *atomic.Uint64) *ycsbChooser {
	rng := rand.New(rand.NewSource(seed))
	return &ycsbChooser{
		rng:   rng,
		zipf:  rand.NewZipf(rng, 1.1, 1, maxRecords),
		dist:  dist,
		count: count,
	}
}

// pick returns an insertion-order record index in [0, count).
func (c *ycsbChooser) pick() uint64 {
	n := c.count.Load()
	switch c.dist {
	case "uniform":
		return c.rng.Uint64() % n
	case "latest":
		off := c.zipf.Uint64()
		if off >= n {
			off = n - 1
		}
		return n - 1 - off
	default: // scrambled zipfian
		return ycsbHash(c.zipf.Uint64()) % n
	}
}

// mixFor resolves a workload letter.
func mixFor(w string) (ycsbMix, error) {
	for _, m := range ycsbMixes {
		if m.name == w {
			return m, nil
		}
	}
	return ycsbMix{}, fmt.Errorf("bench: unknown YCSB workload %q (want A-F)", w)
}

// YCSBBench runs the configured workloads, each on a freshly loaded
// concurrent FPTree, printing one summary line per workload to w and
// returning the results in the order run.
func YCSBBench(w io.Writer, cfg YCSBConfig) ([]YCSBResult, error) {
	if cfg.Records <= 0 || cfg.Ops <= 0 {
		return nil, fmt.Errorf("bench: YCSB needs positive records and ops")
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.ScanLen <= 0 {
		cfg.ScanLen = 100
	}
	if len(cfg.Workloads) == 0 {
		cfg.Workloads = []string{"A", "B", "C", "D", "E", "F"}
	}
	var results []YCSBResult
	for _, name := range cfg.Workloads {
		mix, err := mixFor(strings.ToUpper(strings.TrimSpace(name)))
		if err != nil {
			return nil, err
		}
		res, err := ycsbRun(mix, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: ycsb-%s: %v", strings.ToLower(mix.name), err)
		}
		results = append(results, res)
		fmt.Fprintf(w, "%-10s %-8s %9.0f ops/s  p50 %6dns  p99 %7dns  %d threads  %s\n",
			res.Tree, res.Workload, res.OpsPerSec, res.P50NS, res.P99NS, res.Threads, res.KeyDist)
	}
	return results, nil
}

// ycsbRun loads one tree and drives one workload mix to completion.
func ycsbRun(mix ycsbMix, cfg YCSBConfig) (YCSBResult, error) {
	pool := poolMB(poolForScale(Scale{Warm: cfg.Records, Ops: cfg.Ops}, false), scm.LatencyConfig{})
	tr, err := core.CCreate(pool, core.Config{LeafCap: 56, InnerFanout: 128})
	if err != nil {
		return YCSBResult{}, err
	}
	var count atomic.Uint64
	for i := uint64(0); i < uint64(cfg.Records); i++ {
		k := ycsbKey(i)
		if err := tr.Insert(k, ycsbVal(k)); err != nil {
			return YCSBResult{}, err
		}
	}
	count.Store(uint64(cfg.Records))

	// The zipf domain covers the preload plus every insert the run can
	// issue, so late inserts remain reachable by the choosers. Each client
	// goroutine owns a chooser and an op die (rand.Zipf is not goroutine-safe).
	maxRecords := uint64(cfg.Records+cfg.Ops) - 1
	choose := make([]*ycsbChooser, cfg.Threads)
	die := make([]*rand.Rand, cfg.Threads)
	for t := range choose {
		seed := ycsbSeed + int64(t)*7919
		choose[t] = newYCSBChooser(seed, mix.dist, maxRecords, &count)
		die[t] = rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	}

	lat := make([]time.Duration, cfg.Ops)
	total, err := timed(cfg.Threads, cfg.Ops, lat, func(t, _ int) error {
		switch d := die[t].Intn(100); {
		case d < mix.read:
			tr.Find(ycsbKey(choose[t].pick()))
		case d < mix.read+mix.update:
			k := ycsbKey(choose[t].pick())
			_, err := tr.Update(k, ycsbVal(k))
			return err
		case d < mix.read+mix.update+mix.insert:
			k := ycsbKey(count.Add(1) - 1)
			return tr.Insert(k, ycsbVal(k))
		case d < mix.read+mix.update+mix.insert+mix.scan:
			n := 1 + die[t].Intn(cfg.ScanLen)
			return ycsbScan(tr, ycsbKey(choose[t].pick()), n)
		default: // read-modify-write
			k := ycsbKey(choose[t].pick())
			if old, ok := tr.Find(k); ok {
				_, err := tr.Update(k, old+1)
				return err
			}
		}
		return nil
	})
	if err != nil {
		return YCSBResult{}, err
	}
	slices.Sort(lat)
	pct := func(p float64) int64 { return lat[int(p*float64(len(lat)-1))].Nanoseconds() }
	return YCSBResult{
		Tree:      "FPTreeC",
		Workload:  "ycsb-" + strings.ToLower(mix.name),
		Ops:       cfg.Ops,
		OpsPerSec: float64(cfg.Ops) / total.Seconds(),
		P50NS:     pct(0.50),
		P99NS:     pct(0.99),
		Threads:   cfg.Threads,
		KeyDist:   mix.dist,
	}, nil
}

// ycsbScan drives the resumable iterator for up to n entries from start,
// verifying every emitted value is canonical (workload E never updates, so
// a mismatch means the iterator surfaced a torn or stale pair).
func ycsbScan(tr *core.CTree, start uint64, n int) error {
	it := tr.Iterator(start, 0)
	defer it.Close()
	for i := 0; i < n && it.Valid(); i++ {
		if k, v := it.Key(), it.Value(); v != ycsbVal(k) {
			return fmt.Errorf("scan: key %d carries %d, canonical is %d", k, v, ycsbVal(k))
		}
		it.Next()
	}
	return nil
}
