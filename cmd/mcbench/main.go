// Command mcbench is the mc-benchmark equivalent used in Section 6.4: it
// issues SET requests followed by GET requests against a memcached-protocol
// server from many client connections and reports throughput, completed op
// counts and client-side latency percentiles. It fetches the server's `stats`
// before and after the run and prints the per-run delta of every numeric
// stat, plus the derived SCM cost per op (flushes/op, fences/op) the paper
// argues about analytically; on a sharded server it then prints the per-shard
// key distribution (`stats shards`), exposing hot shards.
//
// Usage (a scaling table over client counts is a shell loop over -clients):
//
//	mcbench -addr 127.0.0.1:11211 -clients 50 -ops 100000
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"time"

	"fptree/internal/kvserver"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:11211", "server address")
		clients = flag.Int("clients", 50, "concurrent connections")
		ops     = flag.Int("ops", 100000, "operations per phase")
		size    = flag.Int("size", 32, "value size in bytes")
		timeout = flag.Duration("timeout", 5*time.Second, "per-request I/O deadline (0 = none)")
	)
	flag.Parse()
	stats := func(args ...string) map[string]string {
		c, err := kvserver.Dial(*addr, *timeout)
		check(err)
		defer c.Close()
		m, err := c.Stats(args...)
		check(err)
		return m
	}

	before := stats()
	res, err := kvserver.RunMCBenchmark(*addr, *clients, *ops, *size, *timeout)
	check(err)
	for i, p := range []kvserver.PhaseResult{res.Set, res.Get} {
		fmt.Printf("%s: %.0f ops/s (%d completed)  p50=%v p95=%v p99=%v max=%v\n",
			[]string{"SET", "GET"}[i], p.Ops, p.Completed, p.Latency.P50, p.Latency.P95, p.Latency.P99, p.Latency.Max)
	}

	after := stats()
	delta := kvserver.StatsDelta(before, after)
	fmt.Println("server stats delta (this run):")
	for _, k := range slices.Sorted(maps.Keys(delta)) {
		fmt.Printf("  %-24s %.0f\n", k, delta[k])
	}
	if total := res.Set.Completed + res.Get.Completed; total > 0 {
		fmt.Printf("derived: %.3f flushes/op, %.3f fences/op over %d completed ops\n",
			delta["scm_flushes"]/float64(total),
			delta["scm_fences"]/float64(total), total)
	}
	if n, _ := strconv.Atoi(after["shards"]); n > 1 {
		printShardDist(stats("shards"), n)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// printShardDist renders the n-shard fleet's `stats shards`: each shard's
// keys (shard<i>_len), its share of the fleet's, and its SCM writes and
// flushes.
func printShardDist(stats map[string]string, n int) {
	lens := make([]uint64, n)
	var total uint64
	for i := range lens {
		lens[i], _ = strconv.ParseUint(stats[fmt.Sprintf("shard%d_len", i)], 10, 64)
		total += lens[i]
	}
	fmt.Printf("shard distribution (%d keys over %d shards):\n", total, n)
	for i, l := range lens {
		fmt.Printf("  shard%-3d %10d keys  %5.1f%%  (writes %s, flushes %s)\n",
			i, l, 100*float64(l)/float64(max(total, 1)),
			stats[fmt.Sprintf("shard%d_scm_writes", i)],
			stats[fmt.Sprintf("shard%d_scm_flushes", i)])
	}
}
