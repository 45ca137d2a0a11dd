// Command fptree-bench regenerates the tables and figures of the FPTree
// paper's evaluation (Section 6 and Appendix A) as text tables comparing the
// FPTree against NV-Tree, wBTree and STXTree. How fast, small and correct
// this repository is at a commit is a different question with a different
// program: `go run ./benchmark` (see benchmark/README.md).
//
// Usage:
//
//	fptree-bench -exp fig7 [-warm N] [-ops N] [-scale paper]
//	fptree-bench -exp all
//	fptree-bench -recovery [-recovery-keys N,..] [-recovery-workers N,..] [-recovery-var] [-recovery-file]
//	fptree-bench -ycsb [-ycsb-records N] [-ycsb-threads N] [-ops N]
//
// Each -exp value is one table or figure; bench.Experiments is the list and
// DESIGN.md indexes it. An unknown id exits 2 naming the valid ones.
//
// -recovery runs the recovery-time experiment instead (see RECOVERY.md and
// the recovery section of EXPERIMENTS.md): for each -recovery-keys size it
// bulk loads a tree, simulates a restart, and times core.Open with the leaf
// scan on each -recovery-workers count of goroutines (the one knob left on
// the scan width: the library and memkv use runtime.GOMAXPROCS(0)) under
// 250 ns of emulated SCM latency. Adding
// -recovery-file builds each tree in a real arena file and reopens the file
// cold for every measurement, so each data point is a true process restart
// (arena open, mmap, recovery scan) rather than an emulated Crash.
//
// -ycsb runs the YCSB-style workload suite (A-F) on the concurrent FPTree
// instead: scrambled-zipfian, latest and uniform key choosers, read/update/
// insert/scan/read-modify-write mixes, -ycsb-threads client goroutines.
// Scans drive the resumable Iterator and verify every value; a mismatch
// fails the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"fptree/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// parseIntList parses a comma-separated list of positive ints ("1,2,4").
func parseIntList(flagName, s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-%s: bad value %q in %q", flagName, f, s)
		}
		out = append(out, n)
	}
	return out, nil
}

// run is main with its inputs and outputs as parameters; it returns the exit
// code: 0 done, 1 an experiment failed, 2 bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	var ids []string
	for _, e := range bench.Experiments {
		ids = append(ids, e.ID)
	}
	fs := flag.NewFlagSet("fptree-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "experiment: "+strings.Join(ids, "|")+"|all")
		warm       = fs.Int("warm", 100000, "warm-up keys")
		ops        = fs.Int("ops", 50000, "measured operations")
		scale      = fs.String("scale", "small", "small | paper (paper: 50M/50M — hours of runtime)")
		threads    = fs.Int("threads", runtime.NumCPU()*2, "max thread count of the fig9-11 sweeps")
		recovery   = fs.Bool("recovery", false, "run the recovery-time experiment (recovery time vs tree size per worker count) instead of -exp")
		recKeys    = fs.String("recovery-keys", "100000,1000000", "comma-separated tree sizes for -recovery")
		recWorkers = fs.String("recovery-workers", "1,2", "comma-separated recovery worker counts for -recovery")
		recVar     = fs.Bool("recovery-var", false, "also measure the variable-size-key tree in -recovery")
		recFile    = fs.Bool("recovery-file", false, "run -recovery over file-backed arenas: each measurement reopens a real arena file cold (true restart, including the mmap)")
		ycsb       = fs.Bool("ycsb", false, "run the YCSB-style workload suite (A-F) on the concurrent FPTree instead of -exp")
		ycsbRec    = fs.Int("ycsb-records", 50000, "preloaded records per -ycsb workload")
		ycsbThr    = fs.Int("ycsb-threads", 1, "client goroutines for -ycsb")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc := bench.Scale{Warm: *warm, Ops: *ops}
	if *scale == "paper" {
		sc = bench.Scale{Warm: 50_000_000, Ops: 50_000_000}
	}

	// section prints one `===== name =====` block and returns its exit code.
	section := func(name string, fn func() error) int {
		fmt.Fprintf(stdout, "\n===== %s =====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			return 1
		}
		return 0
	}
	if *recovery {
		cfg := bench.RecoveryConfig{Var: *recVar, FileBacked: *recFile}
		var err error
		if cfg.Sizes, err = parseIntList("recovery-keys", *recKeys); err == nil {
			cfg.Workers, err = parseIntList("recovery-workers", *recWorkers)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		return section("recovery", func() error { _, err := bench.RecoveryBench(stdout, cfg); return err })
	}
	if *ycsb {
		cfg := bench.YCSBConfig{Records: *ycsbRec, Ops: *ops, Threads: *ycsbThr}
		return section("ycsb", func() error { _, err := bench.YCSBBench(stdout, cfg); return err })
	}
	matched := false
	for _, e := range bench.Experiments {
		if *exp != "all" && *exp != e.ID {
			continue
		}
		matched = true
		if code := section(e.ID, func() error { return e.Run(stdout, sc, *threads) }); code != 0 {
			return code
		}
	}
	if !matched {
		fmt.Fprintf(stderr, "fptree-bench: unknown experiment %q; valid -exp values:\n", *exp)
		for _, e := range bench.Experiments {
			fmt.Fprintf(stderr, "  %-16s %s\n", e.ID, e.Title)
		}
		fmt.Fprintf(stderr, "  %-16s every experiment above, in that order\n", "all")
		return 2
	}
	return 0
}
