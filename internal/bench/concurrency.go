package bench

import (
	"fmt"
	"io"
	"time"
)

// Fig9Concurrency reproduces Figures 9-11: throughput and speedup of the
// concurrent FPTree and NV-Tree across thread counts, for the
// Find/Insert/Update/Delete/Mixed workloads. latNS selects the emulated SCM
// latency (85 for Figure 9/10, 145 for Figure 11 — the paper's local vs
// remote socket latencies).
func Fig9Concurrency(w io.Writer, sc Scale, threads []int, latNS int, varKeys bool) error {
	title := "fixed keys"
	if varKeys {
		title = "variable-size keys"
	}
	fmt.Fprintf(w, "# Figures 9-11: concurrent throughput, %s, SCM %dns\n", title, latNS)
	if varKeys {
		pointerKeyNote(w, "FPTreeCVar", "FPTreeCVar")
	}
	fmt.Fprintf(w, "%-14s %8s %-8s %14s %10s\n", "tree", "threads", "op", "Mops/s", "speedup")
	lat := LatencyNS(latNS)
	warm, extra, mixed := genKeys(sc.Warm, 21), genKeys(sc.Ops, 22), genKeys(sc.Ops, 23)
	kinds := []Kind{KindFPTreeC, KindNVTreeC}
	if varKeys {
		for _, run := range varKeyRuns(kinds, KindFPTreeC) {
			err := concurrencyTable(w, threads, sc.Ops, run.kinds,
				keysN(run.keyLen, warm), keysN(run.keyLen, extra), keysN(run.keyLen, mixed), []byte("valuedat"),
				func(kind Kind) (string, VarTree, error) {
					name, t, err := NewConcurrentVar(kind, poolForScale(sc, true), 8, lat)
					return name + run.suffix, t, err
				})
			if err != nil {
				return err
			}
		}
		return nil
	}
	return concurrencyTable(w, threads, sc.Ops, kinds, warm, extra, mixed, 1,
		func(kind Kind) (string, FixedTree, error) {
			return NewConcurrentFixed(kind, poolForScale(sc, false), lat)
		})
}

// concurrencyTable builds a fresh tree per (kind, thread count), loads warm
// and prints throughput and speedup over the first thread count for the base
// operations and the 50/50 Insert/Find mix (inserting from mixed): n ops
// each, on th goroutines over disjoint key stripes.
func concurrencyTable[K, V any](w io.Writer, threads []int, n int, kinds []Kind, warm, extra, mixed []K, val V,
	build func(Kind) (string, Tree[K, V], error)) error {
	mops := func(d time.Duration) float64 { return float64(n) / d.Seconds() / 1e6 }
	for _, kind := range kinds {
		base := map[string]float64{}
		for _, th := range threads {
			name, t, err := build(kind)
			if err != nil {
				return err
			}
			if err := load(t, warm, val); err != nil {
				return err
			}
			r, err := baseOps(t, th, n, warm, extra, val)
			if err != nil {
				return fmt.Errorf("%s, %d threads: %w", name, th, err)
			}
			find, insert := finds(t, warm), inserts(t, mixed, val)
			mix, err := timed(th, n, func(g, i int) error {
				if i%2 == 0 {
					return insert(g, i)
				}
				return find(g, i)
			})
			if err != nil {
				return fmt.Errorf("%s, %d threads: %w", name, th, err)
			}
			for _, row := range []struct {
				op   string
				mops float64
			}{
				{"Find", mops(r.find)}, {"Insert", mops(r.insert)}, {"Update", mops(r.update)},
				{"Delete", mops(r.delete)}, {"Mixed", mops(mix)},
			} {
				if th == threads[0] {
					base[row.op] = row.mops
				}
				sp := row.mops / base[row.op] * float64(threads[0])
				fmt.Fprintf(w, "%-14s %8d %-8s %14.3f %9.2fx\n", name, th, row.op, row.mops, sp)
			}
		}
	}
	return nil
}
