// Command fptree-bench regenerates the tables and figures of the FPTree
// paper's evaluation (Section 6 and Appendix A) as text tables comparing the
// FPTree against NV-Tree, wBTree and STXTree. How fast, small and correct
// this repository is at a commit is a different question with a different
// program: `go run ./benchmark` (see benchmark/README.md).
//
// Usage:
//
//	fptree-bench -exp fig7 [-warm N] [-ops N] [-scale paper] [-threads N]
//	fptree-bench -exp all
//
// Each -exp value is one table or figure; bench.Experiments is the list and
// DESIGN.md indexes it. An unknown id, a count below 1 or an unknown -scale
// exits 2; an experiment that fails (a tree op errs, or a reopened tree does
// not hold what was loaded) exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"fptree/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

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
		exp     = fs.String("exp", "all", "experiment: "+strings.Join(ids, "|")+"|all")
		warm    = fs.Int("warm", 100000, "warm-up keys")
		ops     = fs.Int("ops", 50000, "measured operations")
		scale   = fs.String("scale", "small", "small | paper (paper: 50M/50M — hours of runtime)")
		threads = fs.Int("threads", runtime.NumCPU()*2, "max thread count of the fig9-11 sweeps")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, c := range []struct {
		name string
		n    int
	}{{"warm", *warm}, {"ops", *ops}, {"threads", *threads}} {
		if c.n < 1 {
			fmt.Fprintf(stderr, "fptree-bench: -%s %d: must be at least 1\n", c.name, c.n)
			return 2
		}
	}
	sc := bench.Scale{Warm: *warm, Ops: *ops}
	switch *scale {
	case "small":
	case "paper":
		sc = bench.Scale{Warm: 50_000_000, Ops: 50_000_000}
	default:
		fmt.Fprintf(stderr, "fptree-bench: -scale %q: want small or paper\n", *scale)
		return 2
	}

	matched := false
	for _, e := range bench.Experiments {
		if *exp != "all" && *exp != e.ID {
			continue
		}
		matched = true
		fmt.Fprintf(stdout, "\n===== %s =====\n", e.ID)
		if err := e.Run(stdout, sc, *threads); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.ID, err)
			return 1
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
