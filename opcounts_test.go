package fptree

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"fptree/internal/kvserver"
	"fptree/internal/obs"
	"fptree/internal/scm"
)

// opCountRow is one row of the OpCounts table. prep, when set, builds the
// tree this row and the rows after it run on. A row counts op over n calls,
// except kv-scan, whose once measures one recovery whatever n. maxN bounds n
// where the row runs out of keys (0: no bound).
type opCountRow struct {
	name string
	prep func() error
	pool func() *scm.Pool
	op   func() error
	once func() (float64, error)
	maxN int
}

// opCountRows are the rows of the OpCounts table, in order, on the
// repository benchmark's idx-write tree (CVarTree, 300k x 16 B keys, 8 B
// values, 4 MiB simulated cache) and idx-read tree (CTree, 1M keys): what one
// Insert, Update, Delete, Find and 100-key ScanN costs in line flushes,
// fences, simulated-cache misses and pool accesses (loads), splits and leaf
// deletes included. The kv rows are the served path's tree, which the
// repository benchmark's traced pass cannot show from the SET side (its
// tree-level target upserts whole 122-byte slots): kvserver's store (LeafCap
// 56, 122-byte value field) holding 100k of the same keys with the
// benchmark's 32-byte values, through the adapter's 2-byte frame — an
// overwriting SET, a GET, and what the recovery scan misses on per leaf.
// fixed-update, behind the fixed rows' reads so it moves none of their
// counts, overwrites a value of the CTree. The last row inserts 24-byte keys, which live in key blocks of their own,
// into a CVarTree of 100k such keys. Every row goes through the public API,
// and the rows share their state, so they run in order and once per call of
// opCountRows.
func opCountRows() []opCountRow {
	const varKeys, fixedKeys, kvKeys, ptrKeys = 300000, 1000000, 100000, 100000
	var (
		buf     [16]byte
		val     = []byte("12345678")
		val32   = bytes.Repeat([]byte("v"), 32)
		vt      *CVarTree
		kvPool  *scm.Pool
		kv      kvserver.Store
		ft      *CTree
		next    = uint64(varKeys) // ids below next and not yet deleted are live
		victim  uint64
		pt      *CVarTree
		nextPtr = uint64(ptrKeys)
		rng     = rand.New(rand.NewSource(1))
		scanRng = rand.New(rand.NewSource(2)) // the scan rows' start keys, apart from the other rows' streams
	)
	missing := func(what string, ok bool) error {
		if !ok {
			return fmt.Errorf("%s: not found", what)
		}
		return nil
	}
	vpool := func() *scm.Pool { return vt.Pool() }
	ptrKey := func(id uint64) []byte { return append(scatteredKey(&buf, id), "-pointer"...) }
	return []opCountRow{
		{name: "var-insert", pool: vpool, prep: func() (err error) {
			if vt, err = CreateConcurrentVar(Options{PoolSize: 128 << 20}); err != nil {
				return err
			}
			for id := uint64(0); id < varKeys; id++ {
				if err := vt.Insert(scatteredKey(&buf, id), val); err != nil {
					return err
				}
			}
			return nil
		}, op: func() error {
			next++
			return vt.Insert(scatteredKey(&buf, next-1), val)
		}},
		{name: "var-update", pool: vpool, op: func() error {
			ok, err := vt.Update(scatteredKey(&buf, varKeys/2+uint64(rng.Intn(varKeys/2))), val)
			if err != nil {
				return err
			}
			return missing("update", ok)
		}},
		{name: "var-find", pool: vpool, op: func() error {
			_, ok := vt.Find(scatteredKey(&buf, varKeys/2+uint64(rng.Intn(varKeys/2))))
			return missing("find", ok)
		}},
		{name: "var-delete", pool: vpool, maxN: varKeys / 2, op: func() error {
			victim++
			ok, err := vt.Delete(scatteredKey(&buf, victim-1))
			if err != nil {
				return err
			}
			return missing("delete", ok)
		}},
		{name: "var-scan100", pool: vpool, op: func() error {
			return missing("scan", len(vt.ScanN(scatteredKey(&buf, uint64(scanRng.Intn(varKeys))), 100)) > 0)
		}},
		{name: "kv-set", pool: func() *scm.Pool { return kvPool }, prep: func() (err error) {
			kvPool = scm.NewPool(128<<20, scm.LatencyConfig{})
			if kv, err = kvserver.NewFPTreeCStore(kvPool); err != nil {
				return err
			}
			for id := uint64(0); id < kvKeys; id++ {
				if err := kv.Set(scatteredKey(&buf, id), val32); err != nil {
					return err
				}
			}
			return nil
		}, op: func() error {
			return kv.Set(scatteredKey(&buf, uint64(rng.Intn(kvKeys))), val32)
		}},
		{name: "kv-get", pool: func() *scm.Pool { return kvPool }, op: func() error {
			_, ok := kv.Get(scatteredKey(&buf, uint64(rng.Intn(kvKeys))))
			return missing("get", ok)
		}},
		// The misses of reopening the store on a cold cache, over the leaves
		// its scan visited.
		{name: "kv-scan", once: func() (float64, error) {
			kvPool.Crash() // nothing is dirty: this only empties the simulated cache
			m0 := kvPool.Stats().ReadMisses.Load()
			var err error
			if kv, err = kvserver.OpenFPTreeCStore(kvPool, 1); err != nil {
				return 0, err
			}
			misses := kvPool.Stats().ReadMisses.Load() - m0
			reg := obs.NewRegistry()
			kv.RegisterMetrics(reg)
			return float64(misses) / reg.Snapshot()["fptree_recovery_leaves_scanned_total"], nil
		}},
		{name: "fixed-find", pool: func() *scm.Pool { return ft.Pool() }, prep: func() (err error) {
			if ft, err = CreateConcurrent(Options{PoolSize: 128 << 20}); err != nil {
				return err
			}
			for k := uint64(0); k < fixedKeys; k++ {
				if err := ft.Insert(k*0x9E3779B97F4A7C15, k); err != nil {
					return err
				}
			}
			return nil
		}, op: func() error {
			_, ok := ft.Find(uint64(rng.Intn(fixedKeys)) * 0x9E3779B97F4A7C15)
			return missing("find", ok)
		}},
		{name: "fixed-scan100", pool: func() *scm.Pool { return ft.Pool() }, op: func() error {
			return missing("scan", len(ft.ScanN(uint64(scanRng.Intn(fixedKeys))*0x9E3779B97F4A7C15, 100)) > 0)
		}},
		{name: "fixed-update", pool: func() *scm.Pool { return ft.Pool() }, op: func() error {
			k := uint64(rng.Intn(fixedKeys))
			ok, err := ft.Update(k*0x9E3779B97F4A7C15, k+1)
			if err != nil {
				return err
			}
			return missing("update", ok)
		}},
		{name: "var-ptr-insert", pool: func() *scm.Pool { return pt.Pool() }, prep: func() (err error) {
			if pt, err = CreateConcurrentVar(Options{PoolSize: 64 << 20}); err != nil {
				return err
			}
			for id := uint64(0); id < ptrKeys; id++ {
				if err := pt.Insert(ptrKey(id), val); err != nil {
					return err
				}
			}
			return nil
		}, op: func() error {
			nextPtr++
			return pt.Insert(ptrKey(nextPtr-1), val)
		}},
	}
}

// poolCounts is a snapshot of the pool counters the OpCounts table reports.
type poolCounts struct{ flushes, fences, misses, loads uint64 }

func readCounts(p *scm.Pool) poolCounts {
	st := p.Stats()
	f, n := st.FlushFence()
	return poolCounts{f, n, st.ReadMisses.Load(), st.Reads.Load()}
}

// perOp reports the counts since c0 over n operations, in the order and
// under the units the benchmark prints them.
func (c poolCounts) perOp(c0 poolCounts, n int) []opCountMetric {
	per := func(a, b uint64) float64 { return float64(a-b) / float64(n) }
	return []opCountMetric{
		{"flushes/op", per(c.flushes, c0.flushes)},
		{"fences/op", per(c.fences, c0.fences)},
		{"misses/op", per(c.misses, c0.misses)},
		{"loads/op", per(c.loads, c0.loads)},
	}
}

type opCountMetric struct {
	unit string
	v    float64
}

// BenchmarkOpCounts is the per-operation count table of EXPERIMENTS.md
// ("Flush every line once"), in count mode; see opCountRows for the rows.
// The counts repeat exactly for a -benchtime Nx, and TestOpCountsGolden
// holds them at a fixed N.
//
//	go test -run '^$' -bench OpCounts -benchtime 30000x .
func BenchmarkOpCounts(b *testing.B) {
	for _, r := range opCountRows() {
		if r.prep != nil {
			if err := r.prep(); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(r.name, func(b *testing.B) {
			if r.once != nil {
				v, err := r.once()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(v, "misses/leaf")
				return
			}
			if r.maxN > 0 && b.N > r.maxN {
				b.Skip("more operations than the row has keys for")
			}
			pool := r.pool()
			c0 := readCounts(pool)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.op(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for _, m := range readCounts(pool).perOp(c0, b.N) {
				b.ReportMetric(m.v, m.unit)
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/opcounts.golden")

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// opCountsN is the operations per row of TestOpCountsGolden.
const opCountsN = 5000

// TestOpCountsGolden is the counted equivalence gate: every OpCounts row at
// opCountsN operations, its flushes, fences, misses and loads per operation
// (kv-scan: misses per leaf), must match testdata/opcounts.golden exactly. A
// change that moves a count on purpose regenerates the file with -update and
// says why. The counts do not depend on the race detector, which slows the
// trees' 1.4M inserts about 30-fold, so the test skips under it; CI runs it
// in a step of its own.
func TestOpCountsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes no count and takes minutes here")
	}
	var out strings.Builder
	for _, r := range opCountRows() {
		if r.prep != nil {
			if err := r.prep(); err != nil {
				t.Fatal(err)
			}
		}
		fmt.Fprint(&out, r.name)
		if r.once != nil {
			v, err := r.once()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, " misses/leaf=%.6g\n", v)
			continue
		}
		pool := r.pool()
		c0 := readCounts(pool)
		for i := 0; i < opCountsN; i++ {
			if err := r.op(); err != nil {
				t.Fatalf("%s op %d: %v", r.name, i, err)
			}
		}
		for _, m := range readCounts(pool).perOp(c0, opCountsN) {
			fmt.Fprintf(&out, " %s=%.6g", m.unit, m.v)
		}
		out.WriteByte('\n')
	}
	const golden = "testdata/opcounts.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("op counts moved from %s:\n got:\n%s want:\n%s", golden, got, want)
	}
}
