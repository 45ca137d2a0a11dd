package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
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

// Latencies is the paper's emulated SCM read-latency sweep (Figure 7).
var Latencies = []int{90, 250, 450, 650}

// keys16 renders a fixed-size key as the paper's 16-byte string keys.
func keys16(k uint64) []byte {
	return []byte(fmt.Sprintf("k%015d", k%1e15))
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

func avgPerOp(n int, fn func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(start) / time.Duration(n)
}

// Fig7Fixed reproduces Figure 7a-d: single-threaded Find/Insert/Update/
// Delete average time per operation across SCM latencies, fixed-size keys.
func Fig7Fixed(w io.Writer, sc Scale, latencies []int, kinds []Kind) error {
	fmt.Fprintf(w, "# Figure 7a-d: single-threaded base operations, fixed keys (8B)\n")
	fmt.Fprintf(w, "# warm=%d ops=%d; avg time/op in ns\n", sc.Warm, sc.Ops)
	fmt.Fprintf(w, "%-10s %8s %10s %10s %10s %10s\n", "tree", "lat(ns)", "Find", "Insert", "Update", "Delete")
	warm := genKeys(sc.Warm, 1)
	extra := genKeys(sc.Ops, 2)
	for _, kind := range kinds {
		for _, lat := range latencies {
			inst, err := NewFixed(kind, poolForScale(sc), LatencyNS(lat, true))
			if err != nil {
				return err
			}
			t := inst.Fixed
			for _, k := range warm {
				if err := t.Insert(k, k); err != nil {
					return err
				}
			}
			find := avgPerOp(sc.Ops, func(i int) { t.Find(warm[i%len(warm)]) })
			ins := avgPerOp(sc.Ops, func(i int) { t.Insert(extra[i], uint64(i)) })          //nolint:errcheck
			upd := avgPerOp(sc.Ops, func(i int) { t.Update(warm[i%len(warm)], uint64(i)) }) //nolint:errcheck
			del := avgPerOp(sc.Ops, func(i int) { t.Delete(extra[i]) })                     //nolint:errcheck
			fmt.Fprintf(w, "%-10s %8d %10d %10d %10d %10d\n", inst.Name, lat, find.Nanoseconds(), ins.Nanoseconds(), upd.Nanoseconds(), del.Nanoseconds())
			if kind == KindSTXTree {
				break // DRAM-only: latency-independent
			}
		}
	}
	return nil
}

// Fig7Var reproduces Figure 7g-j with 16-byte string keys.
func Fig7Var(w io.Writer, sc Scale, latencies []int, kinds []Kind) error {
	fmt.Fprintf(w, "# Figure 7g-j: single-threaded base operations, variable-size keys (16B strings)\n")
	fmt.Fprintf(w, "%-12s %8s %10s %10s %10s %10s\n", "tree", "lat(ns)", "Find", "Insert", "Update", "Delete")
	warm := genKeys(sc.Warm, 3)
	extra := genKeys(sc.Ops, 4)
	val := []byte("valuedat")
	for _, kind := range kinds {
		for _, lat := range latencies {
			inst, err := NewVar(kind, poolForScale(sc)*2, 8, LatencyNS(lat, true))
			if err != nil {
				return err
			}
			t := inst.Var
			for _, k := range warm {
				if err := t.Insert(keys16(k), val); err != nil {
					return err
				}
			}
			find := avgPerOp(sc.Ops, func(i int) { t.Find(keys16(warm[i%len(warm)])) })
			ins := avgPerOp(sc.Ops, func(i int) { t.Insert(keys16(extra[i]), val) })          //nolint:errcheck
			upd := avgPerOp(sc.Ops, func(i int) { t.Update(keys16(warm[i%len(warm)]), val) }) //nolint:errcheck
			del := avgPerOp(sc.Ops, func(i int) { t.Delete(keys16(extra[i])) })               //nolint:errcheck
			fmt.Fprintf(w, "%-12s %8d %10d %10d %10d %10d\n", inst.Name, lat, find.Nanoseconds(), ins.Nanoseconds(), upd.Nanoseconds(), del.Nanoseconds())
			if kind == KindSTXTree {
				break
			}
		}
	}
	return nil
}

// Fig7Recovery reproduces Figure 7e-f: recovery time versus tree size at two
// SCM latencies, against a full STXTree rebuild.
func Fig7Recovery(w io.Writer, sizes []int, latencies []int) error {
	fmt.Fprintf(w, "# Figure 7e-f: recovery time vs tree size (fixed keys)\n")
	fmt.Fprintf(w, "%-10s %8s %10s %14s\n", "tree", "lat(ns)", "size", "recovery(ms)")
	for _, lat := range latencies {
		for _, size := range sizes {
			keys := genKeys(size, 5)
			for _, kind := range []Kind{KindFPTree, KindPTree, KindNVTree, KindWBTree} {
				inst, err := NewFixed(kind, 16+size/2000, LatencyNS(lat, true))
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
				if _, err := inst.Recover(); err != nil {
					return err
				}
				fmt.Fprintf(w, "%-10s %8d %10d %14.3f\n", inst.Name, lat, size, float64(time.Since(start).Microseconds())/1000)
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

// Fig8Memory reproduces Figure 8: SCM and DRAM consumption per tree.
func Fig8Memory(w io.Writer, n int) error {
	fmt.Fprintf(w, "# Figure 8: memory consumption with %d keys (paper: 100M)\n", n)
	fmt.Fprintf(w, "%-12s %14s %14s %10s\n", "tree", "SCM(bytes)", "DRAM(bytes)", "DRAM%%")
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
			if err := inst.Var.Insert(keys16(k), []byte("v")); err != nil {
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
	for _, m := range []int{4, 8, 16, 32, 56} {
		fpA := expectedFPProbes(m, 256)
		nvA := float64(m+1) / 2
		wbA := math.Log2(float64(m))
		fpM := measureFPProbes(m, n)
		nvM := measureNVProbes(m, n)
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

func measureFPProbes(m, n int) float64 {
	pool := scm.NewPool(128<<20, scm.LatencyConfig{CacheBytes: -1})
	t, err := core.Create(pool, core.Config{LeafCap: m, InnerFanout: 256, GroupSize: 8})
	if err != nil {
		return math.NaN()
	}
	keys := genKeys(n, 7)
	for _, k := range keys {
		t.Insert(k, k) //nolint:errcheck
	}
	searches, probes := t.Ops.Searches.Load(), t.Ops.KeyProbes.Load()
	for _, k := range keys {
		t.Find(k)
	}
	return float64(t.Ops.KeyProbes.Load()-probes) / float64(t.Ops.Searches.Load()-searches)
}

func measureNVProbes(m, n int) float64 {
	pool := scm.NewPool(256<<20, scm.LatencyConfig{CacheBytes: -1})
	t, err := nvtree.New(pool, nvtree.Config{LeafCap: m, InnerCap: 128})
	if err != nil {
		return math.NaN()
	}
	keys := genKeys(n, 7)
	for _, k := range keys {
		t.Insert(k, k) //nolint:errcheck
	}
	t.Searches.Store(0)
	t.KeyProbes.Store(0)
	for _, k := range keys {
		t.Find(k)
	}
	return float64(t.KeyProbes.Load()) / float64(t.Searches.Load())
}

// Table1NodeSizes reproduces the preliminary node-size tuning experiment.
func Table1NodeSizes(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Table 1 (preliminary experiment): FPTree node-size sweep\n")
	fmt.Fprintf(w, "%-8s %-8s %12s %12s\n", "inner", "leaf", "Find(ns)", "Insert(ns)")
	warm := genKeys(sc.Warm, 8)
	extra := genKeys(sc.Ops, 9)
	for _, inner := range []int{64, 512, 4096} {
		for _, leaf := range []int{16, 32, 56, 64} {
			pool := scm.NewPool(int64(poolForScale(sc))<<20, LatencyNS(250, true))
			t, err := core.Create(pool, core.Config{LeafCap: leaf, InnerFanout: inner, GroupSize: 8})
			if err != nil {
				return err
			}
			for _, k := range warm {
				t.Insert(k, k) //nolint:errcheck
			}
			find := avgPerOp(sc.Ops, func(i int) { t.Find(warm[i%len(warm)]) })
			ins := avgPerOp(sc.Ops, func(i int) { t.Insert(extra[i], 1) }) //nolint:errcheck
			fmt.Fprintf(w, "%-8d %-8d %12d %12d\n", inner, leaf, find.Nanoseconds(), ins.Nanoseconds())
		}
	}
	return nil
}

// Fig14Payload reproduces Appendix A: payload-size impact on the
// variable-size-key trees at 360 ns.
func Fig14Payload(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Figure 14 (Appendix A): payload size impact, var keys, SCM 360ns\n")
	fmt.Fprintf(w, "%-12s %8s %10s %10s %10s %10s\n", "tree", "payload", "Find", "Insert", "Update", "Delete")
	warm := genKeys(sc.Warm, 10)
	extra := genKeys(sc.Ops, 11)
	for _, kind := range []Kind{KindFPTree, KindPTree, KindNVTree, KindWBTree} {
		for _, payload := range []int{8, 48, 112} {
			inst, err := NewVar(kind, poolForScale(sc)*4, payload, LatencyNS(360, true))
			if err != nil {
				return err
			}
			t := inst.Var
			val := make([]byte, payload)
			for _, k := range warm {
				if err := t.Insert(keys16(k), val); err != nil {
					return err
				}
			}
			find := avgPerOp(sc.Ops, func(i int) { t.Find(keys16(warm[i%len(warm)])) })
			ins := avgPerOp(sc.Ops, func(i int) { t.Insert(keys16(extra[i]), val) })          //nolint:errcheck
			upd := avgPerOp(sc.Ops, func(i int) { t.Update(keys16(warm[i%len(warm)]), val) }) //nolint:errcheck
			del := avgPerOp(sc.Ops, func(i int) { t.Delete(keys16(extra[i])) })               //nolint:errcheck
			fmt.Fprintf(w, "%-12s %8d %10d %10d %10d %10d\n", inst.Name, payload, find.Nanoseconds(), ins.Nanoseconds(), upd.Nanoseconds(), del.Nanoseconds())
		}
	}
	return nil
}

// AblationFingerprints isolates the fingerprints' contribution: FPTree vs
// PTree with identical node sizes, Find-only, across latencies.
func AblationFingerprints(w io.Writer, sc Scale) error {
	fmt.Fprintf(w, "# Ablation: fingerprints on/off (identical node sizes), Find ns/op\n")
	fmt.Fprintf(w, "%-8s %14s %14s %8s\n", "lat(ns)", "with-FP", "without-FP", "speedup")
	warm := genKeys(sc.Warm, 12)
	for _, lat := range []int{90, 650} {
		res := map[bool]time.Duration{}
		for _, withFP := range []bool{true, false} {
			pool := scm.NewPool(int64(poolForScale(sc))<<20, LatencyNS(lat, true))
			cfg := core.Config{LeafCap: 56, InnerFanout: 4096, GroupSize: 8}
			if !withFP {
				cfg.Variant = core.VariantPTree
			}
			t, err := core.Create(pool, cfg)
			if err != nil {
				return err
			}
			for _, k := range warm {
				t.Insert(k, k) //nolint:errcheck
			}
			res[withFP] = avgPerOp(sc.Ops, func(i int) { t.Find(warm[i%len(warm)]) })
		}
		fmt.Fprintf(w, "%-8d %14d %14d %7.2fx\n", lat, res[true].Nanoseconds(), res[false].Nanoseconds(),
			float64(res[false])/float64(res[true]))
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
		res := map[bool]time.Duration{}
		for _, groups := range []bool{true, false} {
			pool := scm.NewPool(int64(poolForScale(sc))<<20, LatencyNS(lat, true))
			cfg := core.Config{LeafCap: 56, InnerFanout: 4096}
			if groups {
				cfg.GroupSize = 8
			}
			t, err := core.Create(pool, cfg)
			if err != nil {
				return err
			}
			for _, k := range keys[:sc.Warm] {
				t.Insert(k, k) //nolint:errcheck
			}
			res[groups] = avgPerOp(sc.Ops, func(i int) { t.Insert(keys[sc.Warm+i], 1) }) //nolint:errcheck
		}
		fmt.Fprintf(w, "%-8d %14d %14d %7.2fx\n", lat, res[true].Nanoseconds(), res[false].Nanoseconds(),
			float64(res[false])/float64(res[true]))
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
		inst1, err := NewFixed(KindFPTree, poolForScale(sc), LatencyNS(lat, true))
		if err != nil {
			return err
		}
		inst2, err := NewFixed(KindWBTree, poolForScale(sc), LatencyNS(lat, true))
		if err != nil {
			return err
		}
		for _, k := range warm {
			inst1.Fixed.Insert(k, k) //nolint:errcheck
			inst2.Fixed.Insert(k, k) //nolint:errcheck
		}
		d1 := avgPerOp(sc.Ops, func(i int) { inst1.Fixed.Find(warm[i%len(warm)]) })
		d2 := avgPerOp(sc.Ops, func(i int) { inst2.Fixed.Find(warm[i%len(warm)]) })
		fmt.Fprintf(w, "%-8d %14d %14d %7.2fx\n", lat, d1.Nanoseconds(), d2.Nanoseconds(), float64(d2)/float64(d1))
	}
	return nil
}

// poolForScale sizes arenas generously for the workload.
func poolForScale(sc Scale) int {
	mb := 32 + (sc.Warm+sc.Ops)/4000
	return mb
}
