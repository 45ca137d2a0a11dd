// Package crashtest is the shared crash-consistency verification harness for
// every persistent structure in the repository.
//
// It offers three layers, each usable on its own:
//
//   - Crash-point enumeration (Enumerate, EveryPersist, EveryFence, Tears): run a
//     mutating operation repeatedly, crashing it at the 1st, 2nd, ... Nth
//     persistence primitive — optionally with torn cache lines — recovering
//     after each crash and handing control to a caller-supplied checker.
//     Every failure report carries the crash Point (kind, step, torn seed)
//     needed to reproduce it deterministically. Tears is the exhaustive
//     form for one operation: every word-prefix combination of the lines
//     dirty at every persist, not one draw.
//
//   - Differential replay (oracle.go, iterator.go): generated operation
//     traces applied in lockstep to a tree and a plain map oracle, with
//     full-content diffs after every batch, and the iterator checkers —
//     written once over a key descriptor (Keys) whose two instances, Fixed
//     and Var, serve every tree of either key kind.
//
//   - Concurrent-history checking (concurrent.go): mixed workloads over
//     private ranges and version-locked shared counters, verified against
//     per-slot commit counts so lost updates and torn reads cannot hide.
//
// The package deliberately depends only on scm, htm and the standard
// library, so the tree packages' own tests (including internal test files of
// scm itself, via an external _test package) can all import it.
package crashtest

import (
	"fmt"
	"testing"

	"fptree/internal/scm"
)

// Point identifies one crash point in an enumeration: the Step-th primitive
// of the given Kind since the workload began, with Seed driving the torn
// cache-line commit when Torn is set. Its String form appears in every
// failure message, so a failing point can be replayed in isolation.
type Point struct {
	Kind string // "persist" or "fence"
	Step int64  // 1-based index of the primitive at which the crash fired
	Torn bool   // whether dirty lines were torn at word granularity
	Seed int64  // RNG seed of the torn commit (meaningful when Torn)
}

func (p Point) String() string {
	if p.Torn {
		return fmt.Sprintf("crash@%s[%d] torn(seed=%d)", p.Kind, p.Step, p.Seed)
	}
	return fmt.Sprintf("crash@%s[%d]", p.Kind, p.Step)
}

// Options tunes an enumeration.
type Options struct {
	// Persists enumerates crashes immediately before the Nth Persist's
	// write-back (scm.Pool.FailAfterFlushes). Enabled by default when both
	// Persists and Fences are false.
	Persists bool
	// Fences additionally enumerates crashes at the Nth fence — an explicit
	// Fence call or the fence a Persist issues after its write-backs
	// (scm.Pool.FailAfterFences) — covering the state just after each
	// primitive.
	Fences bool
	// Torn commits a random word-prefix of every dirty line at each crash
	// (scm.Pool.CrashTornSeed) instead of dropping dirty lines whole. The
	// per-point seed is derived from Seed and the point's kind and step, so
	// any failure reproduces from its printed Point alone.
	Torn bool
	// Seed is the base seed for torn crashes.
	Seed int64
	// MaxSteps caps the number of crash points per kind (default 10000) to
	// keep a buggy, never-converging workload from spinning forever.
	MaxSteps int64
}

// Crashes runs fn, converting an injected-crash panic into a true return.
// Real errors return as-is; any other panic propagates. It is the one
// recover-and-filter idiom every crash test needs.
func Crashes(fn func() error) (crashed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if r == scm.ErrInjectedCrash {
				crashed = true
				err = nil
				return
			}
			panic(r)
		}
	}()
	err = fn()
	return false, err
}

// Enumerate exhaustively crash-tests op on pool. For each enabled fail-point
// kind it arms a crash at step 1, 2, ... and re-invokes op until a run
// completes with no crash left to inject (op is expected to resume the same
// logical workload each time — typically "finish inserting the remaining
// keys"). After every crash the pool state is made durable-consistent
// (Crash or CrashTornSeed) and afterCrash runs recovery plus whatever
// verification the caller wants; its error fails the test with the
// reproducing Point. Returns the total number of crash points exercised.
func Enumerate(tb testing.TB, pool *scm.Pool, opts Options, op func() error, afterCrash func(pt Point) error) int {
	tb.Helper()
	if !opts.Persists && !opts.Fences {
		opts.Persists = true
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 10000
	}
	total := 0
	kinds := make([]string, 0, 2)
	if opts.Persists {
		kinds = append(kinds, "persist")
	}
	if opts.Fences {
		kinds = append(kinds, "fence")
	}
	for _, kind := range kinds {
		for step := int64(1); ; step++ {
			if step > opts.MaxSteps {
				tb.Fatalf("crashtest: enumeration of %s points did not converge within %d steps", kind, opts.MaxSteps)
			}
			if kind == "persist" {
				pool.FailAfterFlushes(step)
			} else {
				pool.FailAfterFences(step)
			}
			crashed, err := Crashes(op)
			pool.FailAfterFlushes(-1)
			pool.FailAfterFences(-1)
			if err != nil {
				tb.Fatalf("crashtest: op failed at %s step %d: %v", kind, step, err)
			}
			if !crashed {
				break
			}
			pt := Point{Kind: kind, Step: step, Torn: opts.Torn}
			if opts.Torn {
				pt.Seed = tornSeed(opts.Seed, kind, step)
				pool.CrashTornSeed(pt.Seed)
			} else {
				pool.Crash()
			}
			total++
			if err := afterCrash(pt); err != nil {
				tb.Fatalf("crashtest: %v: %v", pt, err)
			}
		}
	}
	return total
}

// tornSeed derives the per-point torn-commit seed. It only needs to be
// deterministic and well-spread; SplitMix64's finalizer does both.
func tornSeed(base int64, kind string, step int64) int64 {
	z := uint64(base) ^ (uint64(step) * 0x9E3779B97F4A7C15)
	if kind == "fence" {
		z ^= 0xD1342543DE82EF95
	}
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// EveryPersist enumerates clean crashes at every Persist of op — the
// promoted form of the crashEveryFlush helper the scm tests grew first.
func EveryPersist(tb testing.TB, pool *scm.Pool, op func() error, afterCrash func(pt Point) error) int {
	tb.Helper()
	return Enumerate(tb, pool, Options{Persists: true}, op, afterCrash)
}

// EveryFence enumerates clean crashes at every fence of op.
func EveryFence(tb testing.TB, pool *scm.Pool, op func() error, afterCrash func(pt Point) error) int {
	tb.Helper()
	return Enumerate(tb, pool, Options{Fences: true}, op, afterCrash)
}

// maxTornLines bounds the dirty lines Tears enumerates at one crash point:
// every line takes any of 9 word-prefixes independently, so three lines are
// 729 images. Since every slot line is flushed once, the trees' operations
// dirty at most that many between two persists.
const maxTornLines = 3

// Tears enumerates every torn image a crash inside one operation can leave,
// where Enumerate's Torn option draws one per crash point. For step 1, 2, ...
// it clones the quiescent pool base, lets prepare open the structure on the
// clone and return the operation, and crashes the operation immediately
// before its step-th Persist. Each line dirty at that moment may have any
// prefix of its eight words durable, each independently of the others: check
// is handed one clone per combination (scm.Pool.CrashWords) and runs recovery
// and its verification on it. The enumeration ends with the first step the
// operation completes without reaching. Returns the number of images checked.
func Tears(tb testing.TB, base *scm.Pool, prepare func(*scm.Pool) (op func() error, err error), check func(img *scm.Pool) error) int {
	tb.Helper()
	images := 0
	for step := int64(1); ; step++ {
		crashed := base.Clone()
		op, err := prepare(crashed)
		if err != nil {
			tb.Fatalf("crashtest: prepare: %v", err)
		}
		crashed.FailAfterFlushes(step)
		died, err := Crashes(op)
		if err != nil {
			tb.Fatalf("crashtest: op failed at persist step %d: %v", step, err)
		}
		if !died {
			return images
		}
		var lines []uint64
		crashed.Clone().CrashWords(func(l uint64) int { lines = append(lines, l); return 0 })
		if len(lines) > maxTornLines {
			tb.Fatalf("crashtest: %d lines dirty at persist step %d, exhaustive tearing covers %d", len(lines), step, maxTornLines)
		}
		keep := make([]int, len(lines)) // odometer over the per-line prefixes
		for more := true; more; {
			img := crashed.Clone()
			i := 0
			img.CrashWords(func(uint64) int { i++; return keep[i-1] })
			images++
			if err := check(img); err != nil {
				tb.Fatalf("crashtest: crash@persist[%d], lines %v keeping %v words: %v", step, lines, keep, err)
			}
			more = false
			for j := range keep {
				if keep[j]++; keep[j] <= scm.LineSize/8 {
					more = true
					break
				}
				keep[j] = 0
			}
		}
	}
}
