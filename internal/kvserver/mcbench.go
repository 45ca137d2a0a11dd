package kvserver

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fptree/internal/obs"
)

// BenchResult reports one mc-benchmark run: its SET phase, then its GET phase.
type BenchResult struct{ Set, Get PhaseResult }

// PhaseResult reports one phase of a run.
type PhaseResult struct {
	Ops       float64 // requests per second (completed ones only)
	Completed uint64  // requests that finished successfully
	Latency   obs.HistogramSnapshot
}

// RunMCBenchmark is the in-process equivalent of the paper's mc-benchmark:
// clients connections issue ops SET requests (split over the connections,
// remainder included) followed by ops GET requests, against a server at addr.
// A timeout > 0 is the I/O deadline of every request.
func RunMCBenchmark(addr string, clients, ops, valueSize int, timeout time.Duration) (BenchResult, error) {
	clients = max(clients, 1)
	conns := make([]*Client, clients)
	for i := range conns {
		c, err := Dial(addr, timeout)
		if err != nil {
			return BenchResult{}, err
		}
		defer c.Close()
		conns[i] = c
	}
	val := bytes.Repeat([]byte("v"), valueSize)
	key := func(i int) []byte { return []byte(fmt.Sprintf("memtier-%08d", i)) }

	// phase spreads ops over the connections (the first ops%clients
	// connections take one extra so nothing is dropped), runs them, and
	// computes the rate from the ops that actually completed — a goroutine
	// that errors mid-phase stops contributing instead of being counted.
	phase := func(op func(c *Client, i int) error) (PhaseResult, error) {
		var wg sync.WaitGroup
		var hist obs.Histogram
		var completed atomic.Uint64
		errs := make(chan error, clients)
		per, rem := ops/clients, ops%clients
		start := time.Now()
		for ci, c := range conns {
			wg.Add(1)
			base, n := ci*per+min(ci, rem), per
			if ci < rem {
				n++
			}
			go func() {
				defer wg.Done()
				for i := base; i < base+n; i++ {
					t0 := time.Now()
					if err := op(c, i); err != nil {
						errs <- err
						return
					}
					hist.Observe(time.Since(t0))
					completed.Add(1)
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		close(errs)
		n := completed.Load()
		return PhaseResult{float64(n) / elapsed, n, hist.Snapshot()}, <-errs // nil if no goroutine failed
	}

	set, err := phase(func(c *Client, i int) error { return c.Set(key(i), val) })
	if err != nil {
		return BenchResult{}, err
	}
	get, err := phase(func(c *Client, i int) error {
		_, _, err := c.GetAppend(nil, key(i))
		return err
	})
	if err != nil {
		return BenchResult{}, err
	}
	return BenchResult{set, get}, nil
}

// StatsDelta returns after-minus-before for every stat whose values in both
// maps parse as numbers (uptime, counters, the scm_* lines); non-numeric
// stats (version, engine) and stats absent from either map are dropped.
// Fetch the server's stats before and after a run and diff them to attribute
// SCM traffic and command counts to that run alone.
func StatsDelta(before, after map[string]string) map[string]float64 {
	delta := make(map[string]float64, len(after))
	for k, av := range after {
		a, errA := strconv.ParseFloat(av, 64)
		b, errB := strconv.ParseFloat(before[k], 64) // "" when absent: an error
		if errA == nil && errB == nil {
			delta[k] = a - b
		}
	}
	return delta
}
