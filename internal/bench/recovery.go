package bench

// Recovery-time experiment: the reproduction of the paper's §6 measurement
// that FPTree recovery is a fast linear scan of the leaf level (the DRAM
// inner nodes are rebuilt, not logged), and of the observation that the scan
// parallelizes across recovery threads. For each tree size the harness bulk
// loads a tree, simulates a restart (cold caches, only the durable view
// survives), and times core.Open at each requested worker count under the
// emulated SCM latency. Latency is charged in LatencySleep mode so the media
// waits of concurrent scan workers overlap in wall clock even when the host
// has fewer cores than workers; see scm.LatencySleep.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fptree/internal/core"
	"fptree/internal/scm"
)

// RecoveryResult is one recovery-time measurement: one tree, one size, one
// worker count.
type RecoveryResult struct {
	Tree          string  // FPTree | FPTreeVar
	Keys          int     // live pairs in the recovered tree
	Workers       int     // RecoveryOptions.Workers
	RecoveryMS    float64 // the whole core.Open
	RebuildMS     float64 // leaf scan + inner rebuild portion
	LeavesScanned uint64
	SpeedupVs1    float64 // RecoveryMS(workers=1) / RecoveryMS
	FileBacked    bool
}

// RecoveryConfig parameterizes RecoveryBench.
type RecoveryConfig struct {
	Sizes   []int // tree sizes in keys; defaults to {100000, 1000000}
	Workers []int // worker counts; 1 is always included as the baseline
	Var     bool  // also measure the variable-size-key tree
	// FileBacked builds each tree in an arena file (scm.OpenFile) in a
	// temporary directory, closes it, and reopens the file cold for every
	// measurement — a true process restart including the arena mmap, not just
	// the emulated Crash.
	FileBacked bool
}

// recoveryLatency is the emulated SCM read and write latency recovery runs
// under.
const recoveryLatency = 250 * time.Nanosecond

func (c *RecoveryConfig) normalize() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{100000, 1000000}
	}
	seen := map[int]bool{1: true}
	ws := []int{1}
	for _, w := range c.Workers {
		if w > 1 && !seen[w] {
			seen[w] = true
			ws = append(ws, w)
		}
	}
	if len(ws) == 1 {
		ws = append(ws, 2)
	}
	sort.Ints(ws)
	c.Workers = ws
}

// recoveryPoolMB sizes the arena for a bulk-loaded tree of n keys with
// ample headroom (leaves at the default fill factor, groups, allocator
// metadata; var keys additionally allocate one line-rounded block per key).
func recoveryPoolMB(n int, varKeys bool) int {
	perKey := 64
	if varKeys {
		perKey = 192
	}
	return 64 + n*perKey>>20
}

// RecoveryBench runs the recovery-time experiment, streams one summary line
// per measurement to w and returns the measurements: for each size, the
// fixed-key tree at every worker count, then (with cfg.Var) the var-key tree.
func RecoveryBench(w io.Writer, cfg RecoveryConfig) ([]RecoveryResult, error) {
	cfg.normalize()
	dir := ""
	if cfg.FileBacked {
		var err error
		if dir, err = os.MkdirTemp("", "fptree-recovery-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	keyKinds := []bool{false}
	if cfg.Var {
		keyKinds = append(keyKinds, true)
	}
	var results []RecoveryResult
	for _, size := range cfg.Sizes {
		for _, varKeys := range keyKinds {
			rs, err := measureRecovery(w, size, varKeys, cfg.Workers, dir)
			if err != nil {
				return nil, err
			}
			results = append(results, rs...)
		}
	}
	return results, nil
}

// timeRecovery simulates a restart of pool and times one recovery at the
// given worker count. open must run the codec-appropriate core.Open*.
func timeRecovery(pool *scm.Pool, open func() (*core.OpStats, int, error)) (time.Duration, *core.OpStats, int, error) {
	// A restart: unflushed lines are lost (none here — a quiescent tree is
	// fully flushed) and the CPU cache is cold. Recovery itself runs under
	// the emulated SCM latency; everything around it does not.
	pool.Crash()
	pool.SetLatency(scm.LatencySleep, recoveryLatency, recoveryLatency)
	start := time.Now()
	ops, n, err := open()
	dt := time.Since(start)
	pool.SetLatency(scm.LatencyCount, 0, 0)
	return dt, ops, n, err
}

// recoveryArena hands out the pool for each measurement. In-memory mode
// reuses the one loaded pool (timeRecovery's Crash resets it); file-backed
// mode closes the loaded arena after the bulk load and reopens the file cold
// per measurement, so every data point includes a real arena-file open.
type recoveryArena struct {
	pool *scm.Pool // the loaded tree's pool; nil once closed in file mode
	path string    // the arena file; empty in in-memory mode
}

// newRecoveryArena makes the arena the tree is loaded into: in memory when
// dir is empty, else the file dir/name.
func newRecoveryArena(dir, name string, sizeMB int) (*recoveryArena, error) {
	if dir == "" {
		return &recoveryArena{pool: poolMB(sizeMB, scm.LatencyConfig{})}, nil
	}
	path := filepath.Join(dir, name)
	pool, _, err := scm.OpenFile(path, int64(sizeMB)<<20, scm.LatencyConfig{})
	if err != nil {
		return nil, err
	}
	return &recoveryArena{pool: pool, path: path}, nil
}

// forMeasurement returns the pool to recover plus a release function to call
// when the measurement is done.
func (a *recoveryArena) forMeasurement() (*scm.Pool, func(), error) {
	if a.path == "" {
		return a.pool, func() {}, nil
	}
	if a.pool != nil { // first measurement: close the arena the load built
		if err := a.pool.Close(); err != nil {
			return nil, nil, err
		}
		a.pool = nil
	}
	p, _, err := scm.OpenFile(a.path, 0, scm.LatencyConfig{})
	if err != nil {
		return nil, nil, err
	}
	return p, func() { p.Close() }, nil //nolint:errcheck
}

// recoveryTree bulk loads size keys into a fresh tree on pool and returns the
// tree's name and the codec-appropriate reopen.
func recoveryTree(pool *scm.Pool, size int, varKeys bool) (string, func(*scm.Pool, int) (*core.OpStats, int, error), error) {
	cfg := core.Config{LeafCap: 56, InnerFanout: 128, GroupSize: 8}
	if !varKeys {
		tr, err := core.Create(pool, cfg)
		if err != nil {
			return "", nil, err
		}
		kvs := make([]core.KV, size)
		for i := range kvs {
			kvs[i] = core.KV{Key: uint64(i)*2 + 1, Value: uint64(i)}
		}
		return "FPTree", func(pool *scm.Pool, workers int) (*core.OpStats, int, error) {
			t, err := core.Open(pool, core.RecoveryOptions{Workers: workers})
			if err != nil {
				return nil, 0, err
			}
			return &t.Ops, t.Len(), nil
		}, tr.BulkLoad(kvs, 0)
	}
	cfg.ValueSize = 8
	tr, err := core.CreateVar(pool, cfg)
	if err != nil {
		return "", nil, err
	}
	kvs := make([]core.VarKV, size)
	for i := range kvs {
		kvs[i] = core.VarKV{Key: keyN(paperKeyLen, uint64(i)), Value: []byte("valuedat")}
	}
	return "FPTreeVar", func(pool *scm.Pool, workers int) (*core.OpStats, int, error) {
		t, err := core.OpenVar(pool, core.RecoveryOptions{Workers: workers})
		if err != nil {
			return nil, 0, err
		}
		return &t.Ops, t.Len(), nil
	}, tr.BulkLoad(kvs, 0)
}

// measureRecovery loads one tree of size keys and times its recovery at
// every configured worker count, printing one line per measurement.
func measureRecovery(w io.Writer, size int, varKeys bool, workerCounts []int, dir string) ([]RecoveryResult, error) {
	file := fmt.Sprintf("fixed-%d.dat", size)
	if varKeys {
		file = fmt.Sprintf("var-%d.dat", size)
	}
	arena, err := newRecoveryArena(dir, file, recoveryPoolMB(size, varKeys))
	if err != nil {
		return nil, err
	}
	name, open, err := recoveryTree(arena.pool, size, varKeys)
	if err != nil {
		return nil, err
	}
	var out []RecoveryResult
	var base float64 // the workers=1 time, for the speedup column
	for _, workers := range workerCounts {
		pool, release, err := arena.forMeasurement()
		if err != nil {
			return nil, err
		}
		dt, ops, n, err := timeRecovery(pool, func() (*core.OpStats, int, error) { return open(pool, workers) })
		release()
		if err != nil {
			return nil, err
		}
		if n != size {
			return nil, fmt.Errorf("bench: recovered %d keys, want %d", n, size)
		}
		ms := float64(dt.Nanoseconds()) / 1e6
		if workers == 1 {
			base = ms
		}
		r := RecoveryResult{
			Tree:          name,
			Keys:          size,
			Workers:       workers,
			RecoveryMS:    ms,
			RebuildMS:     float64(ops.RecoveryNanos.Load()) / 1e6,
			LeavesScanned: ops.RecoveryLeaves.Load(),
			SpeedupVs1:    base / ms,
			FileBacked:    dir != "",
		}
		mode := ""
		if r.FileBacked {
			mode = "  [arena file]"
		}
		fmt.Fprintf(w, "%-9s %9d keys  workers=%-2d  recovery %8.1f ms  rebuild %8.1f ms  %8d leaves  %.2fx%s\n",
			r.Tree, r.Keys, r.Workers, r.RecoveryMS, r.RebuildMS, r.LeavesScanned, r.SpeedupVs1, mode)
		out = append(out, r)
	}
	return out, nil
}
