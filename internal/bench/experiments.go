package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"fptree/internal/core"
	"fptree/internal/nvtree"
	"fptree/internal/scm"
	"fptree/internal/stx"
)

// Scale sizes an experiment. The paper uses 50 M warm-up keys and 50 M
// operations; the default CLI scale is laptop-sized and configurable.
type Scale struct {
	Warm int // keys loaded before measuring
	Ops  int // operations measured
}

// Experiment is one table or figure of the paper's evaluation, regenerated
// as a text table by `fptree-bench -exp <ID>`.
type Experiment struct {
	ID    string
	Title string
	// Run prints the table to w at scale sc; maxThreads bounds the thread
	// sweep of the concurrency figures.
	Run func(w io.Writer, sc Scale, maxThreads int) error
}

// Experiments is the one list of what fptree-bench can regenerate, in the
// order `-exp all` prints it. The CLI's loop and usage string, the smoke test
// and the DESIGN.md index check all iterate it.
var Experiments = []Experiment{
	{"tab1", "Table 1: FPTree node-size sweep", func(w io.Writer, sc Scale, _ int) error {
		return Table1NodeSizes(w, sc)
	}},
	{"fig4", "Figure 4: expected in-leaf key probes", func(w io.Writer, sc Scale, _ int) error {
		return Fig4Probes(w, sc.Warm)
	}},
	{"fig7", "Figure 7a-d: base operations vs SCM latency, fixed keys", func(w io.Writer, sc Scale, _ int) error {
		return Fig7Fixed(w, sc, Latencies, FixedKinds)
	}},
	{"fig7var", "Figure 7g-j: base operations vs SCM latency, 16-byte string keys", func(w io.Writer, sc Scale, _ int) error {
		return Fig7Var(w, sc, Latencies, FixedKinds)
	}},
	{"fig7rec", "Figure 7e-f: recovery time vs tree size", func(w io.Writer, sc Scale, _ int) error {
		return Fig7Recovery(w, []int{sc.Warm / 10, sc.Warm, sc.Warm * 4}, []int{90, 650})
	}},
	{"fig8", "Figure 8: SCM and DRAM consumption", func(w io.Writer, sc Scale, _ int) error {
		return Fig8Memory(w, sc.Warm)
	}},
	{"fig9", "Figure 9: concurrent scaling at 85 ns, fixed keys", func(w io.Writer, sc Scale, maxThreads int) error {
		return Fig9Concurrency(w, sc, threadSweep(maxThreads), 85, false)
	}},
	{"fig9var", "Figure 9: concurrent scaling at 85 ns, 16-byte string keys", func(w io.Writer, sc Scale, maxThreads int) error {
		return Fig9Concurrency(w, sc, threadSweep(maxThreads), 85, true)
	}},
	// Two sockets: the paper doubles the thread range; on this host the
	// sweep simply extends beyond physical cores.
	{"fig10", "Figure 10: concurrent scaling, wider thread sweep", func(w io.Writer, sc Scale, maxThreads int) error {
		return Fig9Concurrency(w, sc, append(threadSweep(maxThreads), maxThreads*2), 85, false)
	}},
	{"fig11", "Figure 11: concurrent scaling at 145 ns", func(w io.Writer, sc Scale, maxThreads int) error {
		return Fig9Concurrency(w, sc, threadSweep(maxThreads), 145, false)
	}},
	{"fig12", "Figure 12: TATP throughput and restart time", func(w io.Writer, sc Scale, _ int) error {
		return Fig12TATP(w, sc.Warm, sc.Ops, 8, []int{160, 450, 650})
	}},
	{"fig13", "Figure 13: memcached SET/GET throughput", func(w io.Writer, sc Scale, _ int) error {
		return Fig13Memcached(w, 8, sc.Ops, []int{85, 145})
	}},
	{"fig14", "Figure 14: payload-size impact, string keys", func(w io.Writer, sc Scale, _ int) error {
		return Fig14Payload(w, sc)
	}},
	{"ablation-fp", "Ablation: fingerprints on/off", func(w io.Writer, sc Scale, _ int) error {
		return AblationFingerprints(w, sc)
	}},
	{"ablation-groups", "Ablation: leaf groups on/off", func(w io.Writer, sc Scale, _ int) error {
		return AblationGroups(w, sc)
	}},
	{"ablation-sp", "Ablation: selective persistence vs all-SCM", func(w io.Writer, sc Scale, _ int) error {
		return AblationSelectivePersistence(w, sc)
	}},
}

// threadSweep is 1, 2, 4, ... up to maxThreads.
func threadSweep(maxThreads int) []int {
	sweep := []int{1}
	for t := 2; t <= maxThreads; t *= 2 {
		sweep = append(sweep, t)
	}
	return sweep
}

// Latencies is the paper's emulated SCM read-latency sweep (Figure 7).
var Latencies = []int{90, 250, 450, 650}

// The var-key figures run at two key lengths. paperKeyLen is the paper's
// 16-byte string key, which every tree is measured at. This repo's FPTree
// stores a key that short in the leaf slot itself, so at 16 bytes its rows
// measure that path and not the paper's design; pointerKeyLen is a length
// that puts the key behind a key pointer, as Appendix C does for every key,
// and the figures print a second FPTree row there.
const (
	paperKeyLen   = 16
	pointerKeyLen = 24
)

// keyN renders a fixed-size key as an n-byte string key.
func keyN(n int, k uint64) []byte {
	return []byte(fmt.Sprintf("k%0*d", n-1, k%1e15))
}

// keysN renders every key once at n bytes, so no timed loop pays for
// formatting.
func keysN(n int, keys []uint64) [][]byte {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = keyN(n, k)
	}
	return out
}

// varKeyRun is one pass of a var-key figure: kinds at keyLen-byte keys, their
// rows named with suffix.
type varKeyRun struct {
	keyLen int
	kinds  []Kind
	suffix string
}

// varKeyRuns is the two passes every var-key figure makes: all of kinds at
// the paper's key length, then fptree alone at pointerKeyLen.
func varKeyRuns(kinds []Kind, fptree Kind) [2]varKeyRun {
	return [2]varKeyRun{{paperKeyLen, kinds, ""}, {pointerKeyLen, []Kind{fptree}, fmt.Sprintf("/%dB", pointerKeyLen)}}
}

// pointerKeyNote heads every var-key figure: inline names the rows whose
// trees keep paperKeyLen keys in the slot (internal/core's var codec, with or
// without fingerprints), fptree the row repeated at pointerKeyLen.
func pointerKeyNote(w io.Writer, inline, fptree string) {
	fmt.Fprintf(w, "# %s rows: %dB keys live in the leaf slot (this repo's departure from Appendix C);\n", inline, paperKeyLen)
	fmt.Fprintf(w, "# the %s/%dB rows keep each key behind a key pointer — the paper's design\n", fptree, pointerKeyLen)
}

func genKeys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	seen := make(map[uint64]bool, n)
	for i := range keys {
		for {
			k := rng.Uint64()>>1 + 1
			if !seen[k] {
				seen[k] = true
				keys[i] = k
				break
			}
		}
	}
	return keys
}

// poolForScale sizes arenas generously for the workload, in MiB: 256 bytes a
// key over a small floor (a pool costs its size to zero, and every figure
// makes one per row). Var-key trees get four times the room: every key is
// its own allocator block and Figure 14's payloads widen the leaf slots.
func poolForScale(sc Scale, varKeys bool) int {
	mb := 8 + (sc.Warm+sc.Ops)/4000
	if varKeys {
		mb *= 4
	}
	return mb
}

// timed is the harness's one measuring loop. It runs fn(t, i) for every i in
// [0, n), split into contiguous stripes over th goroutines (t is the stripe's
// index, for per-goroutine state), and returns the wall time of the whole
// batch. A stripe stops at its first error and timed reports the lowest
// stripe's.
func timed(th, n int, fn func(t, i int) error) (time.Duration, error) {
	chunk := max(n/th, 1)
	errs := make([]error, th)
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < th && t*chunk < n; t++ {
		lo, hi := t*chunk, (t+1)*chunk
		if t == th-1 {
			hi = n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if err := fn(t, i); err != nil {
					errs[t] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return elapsed, err
		}
	}
	return elapsed, nil
}

// load inserts every key with the same value, untimed.
func load[K, V any](t Tree[K, V], keys []K, val V) error {
	for _, k := range keys {
		if err := t.Insert(k, val); err != nil {
			return err
		}
	}
	return nil
}

// finds and inserts are the timed bodies the figures share: Find keys[i]
// (wrapping around a warm set smaller than the batch) and Insert keys[i].
func finds[K, V any](t Tree[K, V], keys []K) func(_, i int) error {
	return func(_, i int) error { t.Find(keys[i%len(keys)]); return nil }
}

func inserts[K, V any](t Tree[K, V], keys []K, val V) func(_, i int) error {
	return func(_, i int) error { return t.Insert(keys[i], val) }
}

// opTimes is the wall time of one batch of each base operation.
type opTimes struct{ find, insert, update, delete time.Duration }

// baseOps is the one Find/Insert/Update/Delete block behind Figures 7, 9-11
// and 14: on a tree already holding warm it times n Finds and n Updates over
// warm and n Inserts, then n Deletes, of extra (len >= n), each batch on th
// goroutines.
func baseOps[K, V any](t Tree[K, V], th, n int, warm, extra []K, val V) (r opTimes, err error) {
	for _, b := range []struct {
		d  *time.Duration
		fn func(_, i int) error
	}{
		{&r.find, finds(t, warm)},
		{&r.insert, inserts(t, extra, val)},
		{&r.update, func(_, i int) error { _, err := t.Update(warm[i%len(warm)], val); return err }},
		{&r.delete, func(_, i int) error { _, err := t.Delete(extra[i]); return err }},
	} {
		if *b.d, err = timed(th, n, b.fn); err != nil {
			return r, err
		}
	}
	return r, nil
}

// baseOpsRounds is how many times sweepBaseOps runs baseOps on one tree.
const baseOpsRounds = 5

// baseOpsHeader is the note above every sweepBaseOps table.
func baseOpsHeader(w io.Writer, sc Scale) {
	fmt.Fprintf(w, "# warm=%d ops=%d; avg time/op in ns, median of %d rounds\n", sc.Warm, sc.Ops, baseOpsRounds)
}

// sweepBaseOps prints one row of per-op averages (ns) for every kind at
// every value of the swept parameter (SCM latency in Figure 7, payload size
// in Figure 14): build makes the tree and its value, sweepBaseOps warms it
// and runs baseOps on it single-threaded baseOpsRounds times, printing each
// column's median. A round's Deletes remove its Inserts, so every round
// starts from the warm tree. The trees of one parameter value are built and
// warmed together, and round r runs on each of them before round r+1 runs on
// any, so a slow spell of the host lands on every tree's rounds alike and the
// rows stay comparable; the rows are printed kind by kind once every
// parameter value has run.
func sweepBaseOps[K, V any](w io.Writer, nameWidth int, sc Scale, kinds []Kind, params []int, warm, extra []K,
	build func(kind Kind, param int) (name string, t Tree[K, V], val V, err error)) error {
	type cell struct {
		name   string
		tree   Tree[K, V]
		val    V
		rounds [baseOpsRounds]opTimes
	}
	cells := make([][]*cell, len(kinds)) // cells[kind][param]; the STX tree only at params[0]
	for pi, param := range params {
		var row []*cell
		for ki, kind := range kinds {
			if kind == KindSTXTree && pi > 0 {
				continue // DRAM-only: latency-independent
			}
			name, t, val, err := build(kind, param)
			if err != nil {
				return err
			}
			if err := load(t, warm, val); err != nil {
				return err
			}
			c := &cell{name: name, tree: t, val: val}
			cells[ki] = append(cells[ki], c)
			row = append(row, c)
		}
		for r := range baseOpsRounds {
			for _, c := range row {
				var err error
				if c.rounds[r], err = baseOps(c.tree, 1, sc.Ops, warm, extra, c.val); err != nil {
					return fmt.Errorf("%s at %d: %w", c.name, param, err)
				}
			}
		}
		for _, c := range row {
			c.tree = nil // the row's trees are done: let their pools go
		}
	}
	for _, row := range cells {
		for pi, c := range row {
			median := func(col func(opTimes) time.Duration) int64 {
				var ds [baseOpsRounds]time.Duration
				for i, r := range c.rounds {
					ds[i] = col(r)
				}
				slices.Sort(ds[:])
				return (ds[baseOpsRounds/2] / time.Duration(sc.Ops)).Nanoseconds()
			}
			fmt.Fprintf(w, "%-*s %8d %10d %10d %10d %10d\n", nameWidth, c.name, params[pi],
				median(func(r opTimes) time.Duration { return r.find }),
				median(func(r opTimes) time.Duration { return r.insert }),
				median(func(r opTimes) time.Duration { return r.update }),
				median(func(r opTimes) time.Duration { return r.delete }))
		}
	}
	return nil
}

// Fig7Fixed reproduces Figure 7a-d: single-threaded Find/Insert/Update/
// Delete average time per operation across SCM latencies, fixed-size keys.
func Fig7Fixed(w io.Writer, sc Scale, latencies []int, kinds []Kind) error {
	fmt.Fprintf(w, "# Figure 7a-d: single-threaded base operations, fixed keys (8B)\n")
	baseOpsHeader(w, sc)
	fmt.Fprintf(w, "%-10s %8s %10s %10s %10s %10s\n", "tree", "lat(ns)", "Find", "Insert", "Update", "Delete")
	return sweepBaseOps(w, 10, sc, kinds, latencies, genKeys(sc.Warm, 1), genKeys(sc.Ops, 2),
		func(kind Kind, lat int) (string, FixedTree, uint64, error) {
			inst, err := NewFixed(kind, poolForScale(sc, false), LatencyNS(lat))
			if err != nil {
				return "", nil, 0, err
			}
			return inst.Name, inst.Fixed, 1, nil
		})
}

// varBaseOps is sweepBaseOps over the var-key trees with 16-byte string
// keys, then over the FPTree alone with pointerKeyLen keys; cfg maps the
// swept parameter to the payload size and SCM latency.
func varBaseOps(w io.Writer, sc Scale, kinds []Kind, params []int, warmSeed, extraSeed int64,
	cfg func(param int) (payload, latNS int)) error {
	warm, extra := genKeys(sc.Warm, warmSeed), genKeys(sc.Ops, extraSeed)
	for _, run := range varKeyRuns(kinds, KindFPTree) {
		err := sweepBaseOps(w, 14, sc, run.kinds, params, keysN(run.keyLen, warm), keysN(run.keyLen, extra),
			func(kind Kind, param int) (string, VarTree, []byte, error) {
				payload, latNS := cfg(param)
				inst, err := NewVar(kind, poolForScale(sc, true), payload, LatencyNS(latNS))
				if err != nil {
					return "", nil, nil, err
				}
				return inst.Name + run.suffix, inst.Var, make([]byte, payload), nil
			})
		if err != nil {
			return err
		}
	}
	return nil
}

// Fig7Var reproduces Figure 7g-j with 16-byte string keys.
func Fig7Var(w io.Writer, sc Scale, latencies []int, kinds []Kind) error {
	fmt.Fprintf(w, "# Figure 7g-j: single-threaded base operations, variable-size keys (16B strings)\n")
	pointerKeyNote(w, "FPTreeVar and PTreeVar", "FPTreeVar")
	baseOpsHeader(w, sc)
	fmt.Fprintf(w, "%-14s %8s %10s %10s %10s %10s\n", "tree", "lat(ns)", "Find", "Insert", "Update", "Delete")
	return varBaseOps(w, sc, kinds, latencies, 3, 4, func(lat int) (int, int) { return 8, lat })
}

// Fig7Recovery reproduces Figure 7e-f: recovery time versus tree size at two
// SCM latencies, against a full STXTree rebuild. A reopened tree that does
// not hold every key loaded fails the run.
func Fig7Recovery(w io.Writer, sizes []int, latencies []int) error {
	fmt.Fprintf(w, "# Figure 7e-f: recovery time vs tree size (fixed keys)\n")
	fmt.Fprintf(w, "%-10s %8s %10s %14s\n", "tree", "lat(ns)", "size", "recovery(ms)")
	for _, lat := range latencies {
		for _, size := range sizes {
			keys := genKeys(size, 5)
			for _, kind := range []Kind{KindFPTree, KindPTree, KindNVTree, KindWBTree} {
				inst, err := NewFixed(kind, 16+size/2000, LatencyNS(lat))
				if err != nil {
					return err
				}
				for _, k := range keys {
					if err := inst.Fixed.Insert(k, k); err != nil {
						return err
					}
				}
				inst.Pool.Crash()
				start := time.Now()
				tree, err := inst.Recover()
				if err != nil {
					return err
				}
				elapsed := time.Since(start)
				if err := checkRecovered(tree, inst.Name, lat, size); err != nil {
					return err
				}
				fmt.Fprintf(w, "%-10s %8d %10d %14.3f\n", inst.Name, lat, size, float64(elapsed.Microseconds())/1000)
			}
			// Full rebuild of the transient STXTree as the baseline.
			t := stx.NewUint64()
			start := time.Now()
			for _, k := range keys {
				t.Insert(k, k)
			}
			fmt.Fprintf(w, "%-10s %8s %10d %14.3f\n", "STXTree", "-", size, float64(time.Since(start).Microseconds())/1000)
		}
	}
	return nil
}

// checkRecovered returns an error unless tree, a persistent tree name
// reopened at lat ns after loading size keys, holds exactly size keys.
func checkRecovered(tree any, name string, lat, size int) error {
	if n := tree.(interface{ Len() int }).Len(); n != size {
		return fmt.Errorf("%s at %d ns, size %d: reopened tree holds %d keys", name, lat, size, n)
	}
	return nil
}

// Fig8Memory reproduces Figure 8: SCM and DRAM consumption per tree.
func Fig8Memory(w io.Writer, n int) error {
	fmt.Fprintf(w, "# Figure 8: memory consumption with %d keys (paper: 100M)\n", n)
	fmt.Fprintf(w, "%-12s %14s %14s %10s\n", "tree", "SCM(bytes)", "DRAM(bytes)", "DRAM%")
	keys := genKeys(n, 6)
	for _, kind := range FixedKinds {
		inst, err := NewFixed(kind, 32+n/2000, scm.LatencyConfig{CacheBytes: -1})
		if err != nil {
			return err
		}
		for _, k := range keys {
			if err := inst.Fixed.Insert(k, k); err != nil {
				return err
			}
		}
		var scmBytes uint64
		if inst.Pool != nil {
			scmBytes = inst.Pool.AllocatedBytes()
		}
		dram := inst.DRAMBytes()
		frac := 0.0
		if scmBytes+dram > 0 {
			frac = float64(dram) / float64(scmBytes+dram) * 100
		}
		fmt.Fprintf(w, "%-12s %14d %14d %9.2f%%\n", inst.Name, scmBytes, dram, frac)
	}
	// Variable-size keys.
	fmt.Fprintf(w, "# variable-size keys (16B)\n")
	for _, kind := range FixedKinds {
		inst, err := NewVar(kind, 64+n/1000, 8, scm.LatencyConfig{CacheBytes: -1})
		if err != nil {
			return err
		}
		for _, k := range keys {
			if err := inst.Var.Insert(keyN(paperKeyLen, k), []byte("v")); err != nil {
				return err
			}
		}
		var scmBytes uint64
		if inst.Pool != nil {
			scmBytes = inst.Pool.AllocatedBytes()
		}
		dram := inst.DRAMBytes()
		frac := 0.0
		if scmBytes+dram > 0 {
			frac = float64(dram) / float64(scmBytes+dram) * 100
		}
		fmt.Fprintf(w, "%-12s %14d %14d %9.2f%%\n", inst.Name, scmBytes, dram, frac)
	}
	return nil
}

// Fig4Probes reproduces Figure 4: the expected number of in-leaf key probes,
// both analytically (the paper's closed form) and measured on the
// implementations.
func Fig4Probes(w io.Writer, n int) error {
	fmt.Fprintf(w, "# Figure 4: expected in-leaf key probes per successful search\n")
	fmt.Fprintf(w, "%-8s %12s %12s %12s %12s %12s\n", "m", "FP(analytic)", "FP(meas)", "NV(analytic)", "NV(meas)", "wB(analytic)")
	keys := genKeys(n, 7)
	for _, m := range []int{4, 8, 16, 32, 56} {
		fpA := expectedFPProbes(m, 256)
		nvA := float64(m+1) / 2
		wbA := math.Log2(float64(m))
		fpM, err := measureFPProbes(m, keys)
		if err != nil {
			return err
		}
		nvM, err := measureNVProbes(m, keys)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d %12.2f %12.2f %12.2f %12.2f %12.2f\n", m, fpA, fpM, nvA, nvM, wbA)
	}
	return nil
}

// expectedFPProbes is the paper's closed form (Section 4.2):
// E[T] = (1 + m / (n (1 - ((n-1)/n)^m))) / 2.
func expectedFPProbes(m, n int) float64 {
	nm := float64(n)
	mm := float64(m)
	return 0.5 * (1 + mm/(nm*(1-math.Pow((nm-1)/nm, mm))))
}

func measureFPProbes(m int, keys []uint64) (float64, error) {
	pool := poolMB(poolForScale(Scale{Warm: len(keys)}, false), scm.LatencyConfig{CacheBytes: -1})
	t, err := core.Create(pool, core.Config{LeafCap: m, InnerFanout: 256, GroupSize: 8})
	if err != nil {
		return 0, err
	}
	if err := load(t, keys, 1); err != nil {
		return 0, err
	}
	searches, probes := t.Ops.Searches.Load(), t.Ops.KeyProbes.Load()
	for _, k := range keys {
		t.Find(k)
	}
	return float64(t.Ops.KeyProbes.Load()-probes) / float64(t.Ops.Searches.Load()-searches), nil
}

func measureNVProbes(m int, keys []uint64) (float64, error) {
	pool := poolMB(poolForScale(Scale{Warm: len(keys)}, false), scm.LatencyConfig{CacheBytes: -1})
	t, err := nvtree.New(pool, nvtree.Config{LeafCap: m, InnerCap: 128})
	if err != nil {
		return 0, err
	}
	if err := load(t, keys, 1); err != nil {
		return 0, err
	}
	t.Searches.Store(0)
	t.KeyProbes.Store(0)
	for _, k := range keys {
		t.Find(k)
	}
	return float64(t.KeyProbes.Load()) / float64(t.Searches.Load()), nil
}

// Table1NodeSizes reproduces the preliminary node-size tuning experiment.
func Table1NodeSizes(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Table 1 (preliminary experiment): FPTree node-size sweep\n")
	fmt.Fprintf(w, "%-8s %-8s %12s %12s\n", "inner", "leaf", "Find(ns)", "Insert(ns)")
	warm := genKeys(sc.Warm, 8)
	extra := genKeys(sc.Ops, 9)
	for _, inner := range []int{64, 512, 4096} {
		for _, leaf := range []int{16, 32, 56, 64} {
			t, err := core.Create(poolMB(poolForScale(sc, false), LatencyNS(250)),
				core.Config{LeafCap: leaf, InnerFanout: inner, GroupSize: 8})
			if err != nil {
				return err
			}
			find, err := warmAndTime(t, warm, sc.Ops, finds(t, warm))
			if err != nil {
				return err
			}
			ins, err := timed(1, sc.Ops, inserts(t, extra, 1))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-8d %-8d %12d %12d\n", inner, leaf, find.Nanoseconds()/int64(sc.Ops), ins.Nanoseconds()/int64(sc.Ops))
		}
	}
	return nil
}

// warmAndTime loads warm into t and returns the wall time of n
// single-threaded runs of fn.
func warmAndTime(t FixedTree, warm []uint64, n int, fn func(_, i int) error) (time.Duration, error) {
	if err := load(t, warm, 1); err != nil {
		return 0, err
	}
	return timed(1, n, fn)
}

// Fig14Payload reproduces Appendix A: payload-size impact on the
// variable-size-key trees at 360 ns.
func Fig14Payload(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 14 (Appendix A): payload size impact, var keys, SCM 360ns\n")
	pointerKeyNote(w, "FPTreeVar and PTreeVar", "FPTreeVar")
	baseOpsHeader(w, sc)
	fmt.Fprintf(w, "%-14s %8s %10s %10s %10s %10s\n", "tree", "payload", "Find", "Insert", "Update", "Delete")
	return varBaseOps(w, sc, []Kind{KindFPTree, KindPTree, KindNVTree, KindWBTree}, []int{8, 48, 112}, 10, 11,
		func(payload int) (int, int) { return payload, 360 })
}

// printAblation prints one ablation row: the two batch times as ns/op and
// how many times faster the design under test (on) is than the ablated one.
func printAblation(w io.Writer, lat, n int, on, off time.Duration) {
	fmt.Fprintf(w, "%-8d %14d %14d %7.2fx\n", lat, on.Nanoseconds()/int64(n), off.Nanoseconds()/int64(n), float64(off)/float64(on))
}

// AblationFingerprints isolates the fingerprints' contribution: FPTree vs
// PTree with identical node sizes, Find-only, across latencies.
func AblationFingerprints(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Ablation: fingerprints on/off (identical node sizes), Find ns/op\n")
	fmt.Fprintf(w, "%-8s %14s %14s %8s\n", "lat(ns)", "with-FP", "without-FP", "speedup")
	warm := genKeys(sc.Warm, 12)
	for _, lat := range []int{90, 650} {
		var res [2]time.Duration
		for i, variant := range []core.Variant{core.VariantFPTree, core.VariantPTree} {
			t, err := core.Create(poolMB(poolForScale(sc, false), LatencyNS(lat)),
				core.Config{Variant: variant, LeafCap: 56, InnerFanout: 4096, GroupSize: 8})
			if err != nil {
				return err
			}
			if res[i], err = warmAndTime(t, warm, sc.Ops, finds(t, warm)); err != nil {
				return err
			}
		}
		printAblation(w, lat, sc.Ops, res[0], res[1])
	}
	return nil
}

// AblationGroups isolates the leaf groups' contribution to insert
// performance (Section 4.3).
func AblationGroups(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Ablation: amortized leaf-group allocations on/off, Insert ns/op\n")
	fmt.Fprintf(w, "%-8s %14s %14s %8s\n", "lat(ns)", "groups", "no-groups", "speedup")
	keys := genKeys(sc.Warm+sc.Ops, 13)
	for _, lat := range []int{90, 650} {
		var res [2]time.Duration
		for i, groupSize := range []int{8, 0} {
			t, err := core.Create(poolMB(poolForScale(sc, false), LatencyNS(lat)),
				core.Config{LeafCap: 56, InnerFanout: 4096, GroupSize: groupSize})
			if err != nil {
				return err
			}
			if res[i], err = warmAndTime(t, keys[:sc.Warm], sc.Ops, inserts(t, keys[sc.Warm:], 1)); err != nil {
				return err
			}
		}
		printAblation(w, lat, sc.Ops, res[0], res[1])
	}
	return nil
}

// AblationSelectivePersistence contrasts the hybrid SCM-DRAM FPTree against
// the all-SCM wBTree on Find latency: the inner-node traversal is free of
// SCM misses only in the hybrid design.
func AblationSelectivePersistence(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Ablation: selective persistence (hybrid FPTree) vs all-SCM (wBTree), Find ns/op\n")
	fmt.Fprintf(w, "%-8s %14s %14s %8s\n", "lat(ns)", "hybrid", "all-SCM", "speedup")
	warm := genKeys(sc.Warm, 14)
	for _, lat := range []int{90, 650} {
		var res [2]time.Duration
		for i, kind := range []Kind{KindFPTree, KindWBTree} {
			inst, err := NewFixed(kind, poolForScale(sc, false), LatencyNS(lat))
			if err != nil {
				return err
			}
			if res[i], err = warmAndTime(inst.Fixed, warm, sc.Ops, finds(inst.Fixed, warm)); err != nil {
				return err
			}
		}
		printAblation(w, lat, sc.Ops, res[0], res[1])
	}
	return nil
}
