// KV cache: run the memcached-like server of Section 6.4 in-process with the
// concurrent FPTree as its storage engine, then drive it through the
// memcached text protocol from multiple client connections.
package main

import (
	"fmt"
	"log"

	"fptree/internal/kvserver"
	"fptree/internal/scm"
)

func main() {
	pool := scm.NewPool(256<<20, scm.LatencyConfig{})
	store, err := kvserver.NewFPTreeCStore(pool)
	if err != nil {
		log.Fatal(err)
	}
	srv, addr, err := kvserver.Serve("127.0.0.1:0", store)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("memcached-protocol server on %s backed by %s\n", addr, store.Name())

	// The mc-benchmark client: SET phase then GET phase over 8 connections.
	res, err := kvserver.RunMCBenchmark(addr, 8, 20_000, 32, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SET: %.0f ops/s\nGET: %.0f ops/s\n", res.Set.Ops, res.Get.Ops)

	// The cache contents live in (emulated) SCM: unlike vanilla memcached, a
	// restart would recover them instead of starting cold.
	st := pool.Stats().Snapshot()
	fmt.Printf("SCM activity: %d line flushes, %d allocations\n", st.Flushes, st.Allocs)
}
