package bench

import (
	"fmt"
	"io"
	"sync"

	"fptree/internal/kvserver"
	"fptree/internal/nvtree"
	"fptree/internal/scm"
	"fptree/internal/stx"
	"fptree/internal/tatp"
)

// lockedIdx wraps a non-thread-safe index with an RWMutex so the TATP
// clients can read it in parallel, as the paper's prototype does with its
// single-threaded trees. rebuild marks a transient index a restart has to
// refill.
type lockedIdx struct {
	mu      sync.RWMutex
	t       tatp.Index
	rebuild bool
}

func (l *lockedIdx) Insert(k, v uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t.Insert(k, v)
}

func (l *lockedIdx) Find(k uint64) (uint64, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.t.Find(k)
}

// tatpIndex builds the dictionary index of the given kind for Figure 12 and
// the restart that crashes and recovers it. Every kind has its Table 1
// configuration (NewFixed) except the NV-Tree, which uses the paper's special
// database configuration (leaf 1024, inner 8) to survive the
// sequential-subscriber-id load.
func tatpIndex(kind Kind, poolMBs int, lat scm.LatencyConfig) (tatp.Index, func() (tatp.Index, error), error) {
	switch kind {
	case KindNVTree:
		pool := poolMB(poolMBs, lat)
		t, err := nvtree.New(pool, nvtree.Config{LeafCap: 1024, InnerCap: 8})
		if err != nil {
			return nil, nil, err
		}
		return &lockedIdx{t: t}, func() (tatp.Index, error) {
			pool.Crash()
			nt, err := nvtree.Open(pool)
			if err != nil {
				return nil, err
			}
			return &lockedIdx{t: nt}, nil
		}, nil
	case KindSTXTree:
		// A transient index must be rebuilt from scratch after a crash.
		return &lockedIdx{t: stxFixed{stx.NewUint64()}}, func() (tatp.Index, error) {
			return &lockedIdx{t: stxFixed{stx.NewUint64()}, rebuild: true}, nil
		}, nil
	}
	inst, err := NewFixed(kind, poolMBs, lat)
	if err != nil {
		return nil, nil, err
	}
	return &lockedIdx{t: inst.Fixed}, func() (tatp.Index, error) {
		inst.Pool.Crash()
		nt, err := inst.Recover()
		if err != nil {
			return nil, err
		}
		return &lockedIdx{t: nt.(tatp.Index)}, nil
	}, nil
}

// Fig12TATP reproduces Figure 12: TATP read-only throughput and database
// restart time per dictionary index, across SCM latencies.
func Fig12TATP(w io.Writer, subscribers, txns, clients int, latencies []int) error {
	fmt.Fprintf(w, "# Figure 12: TATP with %d subscribers, %d clients\n", subscribers, clients)
	fmt.Fprintf(w, "%-10s %8s %14s %14s\n", "index", "lat(ns)", "TX/s", "restart(ms)")
	for _, lat := range latencies {
		for _, kind := range []Kind{KindFPTree, KindPTree, KindNVTree, KindWBTree, KindSTXTree} {
			latCfg := LatencyNS(lat)
			idx, recoverIdx, err := tatpIndex(kind, 64+subscribers/2000, latCfg)
			if err != nil {
				return err
			}
			colPool := poolMB(32+subscribers/1000, latCfg)
			db, err := tatp.Load(colPool, idx, subscribers)
			if err != nil {
				return err
			}
			tps := db.RunReadOnly(clients, txns)
			// Restart: crash both arenas and measure recovery (index rebuild
			// + column sanity scan). The STXTree restart re-inserts all ids.
			restart, err := db.Restart(func() (tatp.Index, error) {
				nidx, err := recoverIdx()
				if err != nil {
					return nil, err
				}
				if li := nidx.(*lockedIdx); li.rebuild {
					for row := 0; row < subscribers; row++ {
						if err := li.t.Insert(uint64(row+1), uint64(row)); err != nil {
							return nil, err
						}
					}
				}
				return nidx, nil
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-10s %8d %14.0f %14.3f\n", kind, lat, tps, float64(restart.Microseconds())/1000)
		}
	}
	return nil
}

// Fig13Memcached reproduces Figure 13: memcached SET/GET throughput per
// storage engine over loopback TCP at two SCM latencies.
func Fig13Memcached(w io.Writer, clients, ops int, latencies []int) error {
	fmt.Fprintf(w, "# Figure 13: memcached over loopback, %d clients, %d ops per phase\n", clients, ops)
	fmt.Fprintf(w, "%-10s %8s %12s %12s\n", "store", "lat(ns)", "SET/s", "GET/s")
	for _, lat := range latencies {
		for _, e := range kvserver.Engines {
			var pool *scm.Pool
			if e.Open != nil { // a transient engine takes no arena
				mb := 64 + ops/1000
				if e.Name == "nvtreec" {
					mb *= 2 // append-only leaves and rebuilds take the room
				}
				pool = poolMB(mb, LatencyNS(lat))
			}
			store, err := e.Create(pool)
			if err != nil {
				return err
			}
			srv, addr, err := kvserver.Serve("127.0.0.1:0", store)
			if err != nil {
				return err
			}
			res, err := kvserver.RunMCBenchmark(addr, clients, ops, 32, 0)
			srv.Close()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-10s %8d %12.0f %12.0f\n", store.Name(), lat, res.Set.Ops, res.Get.Ops)
		}
	}
	return nil
}
