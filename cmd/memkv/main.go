// Command memkv runs the memcached-like key-value server of Section 6.4 with
// a selectable storage engine. Point any memcached text-protocol client (or
// cmd/mcbench) at it. It speaks get/gets/set (with noreply), delete, version,
// stats and quit.
//
// Usage:
//
//	memkv -addr 127.0.0.1:11211 -store fptreec -latency 85 -max-conns 1024
//
// With -data the SCM arena is a real file: the store survives process death,
// including kill -9. On start the file is created if missing, otherwise the
// tree in it is recovered (crash recovery runs unconditionally — it does not
// depend on the previous process having shut down cleanly). On SIGINT/SIGTERM
// shutdown the arena is synced and marked cleanly closed. Without -data the
// arena lives in memory and all data is lost on exit. The hashmap store has
// no persistent representation and rejects -data.
//
// With -shards N (N > 1) the keyspace is hash-partitioned over N independent
// shard trees behind a router: each shard owns its own SCM arena — with -data
// the files are named <data>.shard0 … <data>.shard(N-1) — its own allocator
// and its own concurrency domain, so clients on different shards share no
// synchronization. One shard (the default) is a fleet of one on the same
// path: its arena is <data> itself and no router sits in front of it. The
// shard count is part of the on-disk layout: a data path is reopened with the
// -shards value it was written with, and any other value is refused by name
// before anything is created. Recovery after a crash runs all shards in
// parallel. `stats` reports fleet-wide totals; `stats shards` breaks them out
// per shard.
//
// With -metrics-addr the server also exposes an observability HTTP endpoint:
// /metrics (Prometheus text exposition of the server, tree, HTM and SCM
// counters and the latency histograms; sharded servers add per-shard series
// labeled {shard="i"}), /debug/vars (expvar), /debug/pprof/,
// /debug/events (recent server events) and — with -trace-sample N —
// /debug/traces (sampled per-operation spans with phase/flush/abort
// attribution). -slow-op D counts and event-logs every request slower than D
// regardless of sampling.
//
// Every shard of a concurrent tree store runs the paper's retry policy: a
// constant budget of optimistic attempts (htm.DefaultMaxRetries), then the
// shard's fallback lock. There is no flag for it; htm_fallbacks_total and
// htm_fallback_held show what the fallback lock is doing.
//
// On SIGINT/SIGTERM the server drains in-flight commands (bounded by -drain)
// and, unless -stats=false, dumps the final stats — per-op counters, latency
// histogram summaries and the SCM emulator counters — to stdout.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fptree/internal/kvserver"
	"fptree/internal/obs"
	"fptree/internal/obs/trace"
	"fptree/internal/scm"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:11211", "listen address")
		store        = flag.String("store", "fptreec", strings.Join(engineNames(), " | "))
		data         = flag.String("data", "", "arena file path; empty = in-memory arena (state lost on exit)")
		shards       = flag.Int("shards", 1, "hash-partition the keyspace over N independent shard trees, one arena per shard (<data>.shard<i>); must match the on-disk layout on reopen")
		latency      = flag.Int("latency", 0, "emulated SCM latency in ns (0 = off)")
		latencyMode  = flag.String("latency-mode", "spin", "how latency is charged: spin | sleep")
		poolMB       = flag.Int("pool", 512, "total SCM arena size in MiB, split evenly across shards (ignored when -data names an existing arena)")
		syncEvery    = flag.Duration("sync", 0, "periodic arena sync interval for power-fail durability (0 = sync only on shutdown)")
		recWorkers   = flag.Int("recovery-workers", 0, "parallel recovery leaf-scan workers per shard (0 = sequential)")
		readTimeout  = flag.Duration("read-timeout", 0, "per-command read deadline (0 = none)")
		writeTimeout = flag.Duration("write-timeout", 0, "per-response write deadline (0 = none)")
		maxConns     = flag.Int("max-conns", 0, "max simultaneous connections (0 = unlimited)")
		drain        = flag.Duration("drain", time.Second, "shutdown grace for in-flight commands")
		dumpStats    = flag.Bool("stats", true, "dump server stats on shutdown")
		metricsAddr  = flag.String("metrics-addr", "", "observability HTTP endpoint (/metrics, /debug/pprof/, /debug/vars, /debug/events, /debug/traces); empty = off")
		traceSample  = flag.Int("trace-sample", 0, "trace 1 in N requests with phase/flush/abort attribution on /debug/traces (0 = tracing off)")
		slowOp       = flag.Duration("slow-op", 0, "count + event-log any request slower than this, even with tracing off (0 = off)")
	)
	flag.Parse()

	lat := scm.LatencyConfig{}
	if *latency > 0 {
		lat = scm.LatencyConfig{
			ReadLatency:  time.Duration(*latency) * time.Nanosecond,
			WriteLatency: time.Duration(*latency) * time.Nanosecond,
		}
		switch *latencyMode {
		case "spin":
			lat.Mode = scm.LatencySpin
		case "sleep":
			lat.Mode = scm.LatencySleep
		default:
			fmt.Fprintf(os.Stderr, "unknown -latency-mode %q (want spin or sleep)\n", *latencyMode)
			os.Exit(2)
		}
	}

	engine, ok := kvserver.EngineByName(*store)
	if !ok {
		fmt.Fprintf(os.Stderr, "memkv: unknown -store %q (want %s)\n", *store, strings.Join(engineNames(), ", "))
		os.Exit(2)
	}
	if engine.Open == nil && *data != "" {
		fmt.Fprintf(os.Stderr, "memkv: the %s store is transient and cannot use -data\n", *store)
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "memkv: -shards %d < 1\n", *shards)
		os.Exit(2)
	}
	layout := *data // how the banners name the arena files
	if *shards > 1 {
		layout = fmt.Sprintf("%s across %d shards", *data, *shards)
	}

	st, pools, err := openFleet(engine, *data, layout, *shards, int64(*poolMB)<<20, lat, *recWorkers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var ring *obs.EventRing
	if *metricsAddr != "" {
		ring = obs.NewEventRing(obs.DefaultEventRingSize)
	}
	var tracer *trace.Tracer
	if *traceSample > 0 {
		tcfg := trace.Config{
			SampleEvery: *traceSample,
			SlowOp:      *slowOp,
			Events:      ring,
		}
		// Flush/fence attribution needs one Stats behind all sampled ops, so
		// it is only wired for the single-arena layout; sharded spans carry
		// phase timings without persistence-cost attribution.
		if len(pools) == 1 {
			tcfg.Costs = pools[0].Stats()
		}
		tracer = trace.New(tcfg)
	}
	cfg := kvserver.Config{
		ReadTimeout:     *readTimeout,
		WriteTimeout:    *writeTimeout,
		MaxConns:        *maxConns,
		DrainTimeout:    *drain,
		Pools:           pools,
		Events:          ring,
		Tracer:          tracer,
		SlowOpThreshold: *slowOp,
	}
	srv, bound, err := kvserver.ServeConfig(*addr, st, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("memkv: %s store listening on %s (SCM latency %dns)\n", st.Name(), bound, *latency)

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		srv.RegisterMetrics(reg)

		var extra map[string]http.Handler
		if tracer != nil {
			extra = map[string]http.Handler{"/debug/traces": trace.Handler(tracer)}
		}

		metricsSrv, metricsBound, err := obs.ServeWith(*metricsAddr, reg, ring, extra)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			srv.Close()
			os.Exit(1)
		}
		defer metricsSrv.Close()
		fmt.Printf("memkv: metrics on http://%s/metrics\n", metricsBound)
		if tracer != nil {
			fmt.Printf("memkv: tracing 1 in %d requests on http://%s/debug/traces\n",
				tracer.SampleEvery(), metricsBound)
		}
	}

	fileBacked := *data != ""
	stopSync := make(chan struct{})
	if *syncEvery > 0 && fileBacked {
		go func() {
			t := time.NewTicker(*syncEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					// One fan-out sync covers every shard arena.
					if err := scm.SyncPools(pools); err != nil {
						fmt.Fprintf(os.Stderr, "memkv: arena sync: %v\n", err)
					}
				case <-stopSync:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("memkv: shutting down")
	srv.Close()
	close(stopSync)
	if fileBacked {
		if err := scm.ClosePools(pools); err != nil {
			fmt.Fprintf(os.Stderr, "memkv: closing arena: %v\n", err)
		} else {
			fmt.Printf("memkv: arena %s closed cleanly\n", layout)
		}
	}
	if *dumpStats {
		srv.DumpStats(os.Stdout)
	}
}

func engineNames() []string {
	names := make([]string, len(kvserver.Engines))
	for i, e := range kvserver.Engines {
		names[i] = e.Name
	}
	return names
}

// openFleet is the one open path: n arenas (file-backed with -data, where
// the on-disk layout must agree with n), one store per arena created or
// recovered with all recoveries running in parallel, and the router in front
// when there is more than one. It returns the pools that exist, nil for an
// engine that takes none.
func openFleet(e kvserver.Engine, data, layout string, n int, poolBytes int64, lat scm.LatencyConfig, workers int) (kvserver.Store, []*scm.Pool, error) {
	var (
		pools     []*scm.Pool
		recovered = make([]bool, n)
		err       error
	)
	switch {
	case data != "":
		pools, recovered, err = scm.OpenFileShards(data, n, poolBytes/int64(n), lat)
		if err != nil {
			return nil, nil, err
		}
	case e.Open != nil: // a transient engine takes no arena
		pools = make([]*scm.Pool, n)
		for i := range pools {
			pools[i] = scm.NewPool(poolBytes/int64(n), lat)
		}
	}

	stores, err := kvserver.BuildShardStores(n, func(i int) (kvserver.Store, error) {
		if pools == nil {
			return e.Create(nil)
		}
		if recovered[i] && e.HasImage(pools[i]) {
			return e.Open(pools[i], workers)
		}
		return e.Create(pools[i])
	})
	if err != nil {
		scm.ClosePools(pools) //nolint:errcheck — surfacing the build error
		return nil, nil, err
	}
	st := stores[0]
	if n > 1 {
		if st, err = kvserver.NewShardedStore(stores, pools); err != nil {
			return nil, nil, err
		}
	}

	anyRecovered, shutdown := false, "clean"
	for i, r := range recovered {
		if r {
			anyRecovered = true
			if !pools[i].WasCleanShutdown() {
				shutdown = "crash"
			}
		}
	}
	switch {
	case anyRecovered:
		if err := st.CheckInvariants(); err != nil {
			return nil, nil, fmt.Errorf("memkv: recovered tree failed invariant check: %w", err)
		}
		fmt.Printf("memkv: recovered %d keys from %s (%s shutdown, invariants ok)\n", st.Len(), layout, shutdown)
		for i, r := range recovered {
			if r {
				fmt.Printf("memkv:   shard %d/%d: %d keys\n", i, n, stores[i].Len())
			}
		}
	case data != "":
		fmt.Printf("memkv: created arena %s\n", layout)
	}
	return st, pools, nil
}
