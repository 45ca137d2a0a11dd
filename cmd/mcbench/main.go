// Command mcbench is the mc-benchmark equivalent used in Section 6.4: it
// issues SET requests followed by GET requests against a memcached-protocol
// server from many client connections and reports throughput, completed op
// counts and client-side latency percentiles. With -server-stats it also
// fetches the server's `stats` output before and after the run and prints the
// per-run delta of every numeric stat, plus the derived SCM cost per op
// (flushes/op, fences/op) the paper argues about analytically.
//
// With -sweep the run is repeated once per client count in a comma-separated
// list, printing one table row per count — the shape of the paper's
// throughput-vs-clients scaling figures. With -shard-dist the per-shard key
// distribution (`stats shards`) is printed after the run, exposing hot shards
// on a sharded server.
//
// Usage:
//
//	mcbench -addr 127.0.0.1:11211 -clients 50 -ops 100000 -server-stats
//	mcbench -addr 127.0.0.1:11211 -sweep 1,8,64 -ops 100000 -shard-dist
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"fptree/internal/kvserver"
	"fptree/internal/obs"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:11211", "server address")
		clients     = flag.Int("clients", 50, "concurrent connections")
		ops         = flag.Int("ops", 100000, "operations per phase")
		size        = flag.Int("size", 32, "value size in bytes")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-request I/O deadline (0 = none)")
		serverStats = flag.Bool("server-stats", false, "print the per-run delta of the server's `stats` counters after the run")
		sweep       = flag.String("sweep", "", "comma-separated client counts; run the benchmark once per count and print a scaling table (overrides -clients)")
		shardDist   = flag.Bool("shard-dist", false, "print the per-shard key distribution (`stats shards`) after the run")
	)
	flag.Parse()

	if *sweep != "" {
		runSweep(*addr, *sweep, *ops, *size, *timeout)
	} else {
		runOnce(*addr, *clients, *ops, *size, *timeout, *serverStats)
	}

	if *shardDist {
		printShardDist(*addr, *timeout)
	}
}

func runOnce(addr string, clients, ops, size int, timeout time.Duration, serverStats bool) {
	var before map[string]string
	if serverStats {
		var err error
		before, err = kvserver.FetchServerStats(addr, timeout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	res, err := kvserver.RunMCBenchmarkTimeout(addr, clients, ops, size, timeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	report := func(name string, rate float64, done uint64, lat obs.HistogramSnapshot) {
		fmt.Printf("%s: %.0f ops/s (%d completed)  p50=%v p95=%v p99=%v max=%v\n",
			name, rate, done, lat.P50, lat.P95, lat.P99, lat.Max)
	}
	report("SET", res.SetOps, res.SetCompleted, res.SetLatency)
	report("GET", res.GetOps, res.GetCompleted, res.GetLatency)

	if serverStats {
		after, err := kvserver.FetchServerStats(addr, timeout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		delta := kvserver.StatsDelta(before, after)
		fmt.Println("server stats delta (this run):")
		keys := make([]string, 0, len(delta))
		for k := range delta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-24s %.0f\n", k, delta[k])
		}
		if total := res.SetCompleted + res.GetCompleted; total > 0 {
			fmt.Printf("derived: %.3f flushes/op, %.3f fences/op over %d completed ops\n",
				delta["scm_flushes"]/float64(total),
				delta["scm_fences"]/float64(total), total)
		}
	}
}

// runSweep repeats the benchmark for each client count in spec ("1,8,64")
// and prints one scaling-table row per count.
func runSweep(addr, spec string, ops, size int, timeout time.Duration) {
	var counts []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "mcbench: bad -sweep entry %q\n", f)
			os.Exit(2)
		}
		counts = append(counts, n)
	}
	fmt.Printf("%8s %14s %14s %12s %12s\n", "clients", "set_ops/s", "get_ops/s", "set_p99", "get_p99")
	for _, n := range counts {
		res, err := kvserver.RunMCBenchmarkTimeout(addr, n, ops, size, timeout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%8d %14.0f %14.0f %12v %12v\n",
			n, res.SetOps, res.GetOps, res.SetLatency.P99, res.GetLatency.P99)
	}
}

// printShardDist fetches `stats shards` and renders the key distribution
// across the fleet, flagging imbalance relative to a perfect spread.
func printShardDist(addr string, timeout time.Duration) {
	stats, err := kvserver.FetchShardStats(addr, timeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	lens := kvserver.ShardLens(stats)
	if lens == nil {
		fmt.Fprintln(os.Stderr, "mcbench: server reported no shard statistics")
		os.Exit(1)
	}
	var total uint64
	for _, l := range lens {
		total += l
	}
	fmt.Printf("shard distribution (%d keys over %d shards):\n", total, len(lens))
	for i, l := range lens {
		share := 0.0
		if total > 0 {
			share = 100 * float64(l) / float64(total)
		}
		fmt.Printf("  shard%-3d %10d keys  %5.1f%%  (writes %s, flushes %s)\n",
			i, l, share,
			stats[fmt.Sprintf("shard%d_scm_writes", i)],
			stats[fmt.Sprintf("shard%d_scm_flushes", i)])
	}
}
