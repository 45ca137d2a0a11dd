package bench

import (
	"fmt"
	"io"
	"sync"

	"fptree/internal/core"
	"fptree/internal/kvserver"
	"fptree/internal/nvtree"
	"fptree/internal/scm"
	"fptree/internal/stx"
	"fptree/internal/tatp"
	"fptree/internal/wbtree"
)

// lockedIdx wraps a non-thread-safe index with an RWMutex so the TATP
// clients can read it in parallel, as the paper's prototype does with its
// single-threaded trees.
type lockedIdx struct {
	mu sync.RWMutex
	t  tatp.Index
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

// tatpIndex builds the dictionary index of the given kind for Figure 12.
// The NV-Tree uses the paper's special database configuration (leaf 1024,
// inner 8) to survive the sequential-subscriber-id load.
func tatpIndex(kind Kind, poolMBs int, lat scm.LatencyConfig) (tatp.Index, func() (tatp.Index, error), error) {
	switch kind {
	case KindFPTree:
		pool := poolMB(poolMBs, lat)
		t, err := core.Create(pool, core.Config{LeafCap: 56, InnerFanout: 4096, GroupSize: 8})
		if err != nil {
			return nil, nil, err
		}
		rec := func() (tatp.Index, error) {
			pool.Crash()
			nt, err := core.Open(pool)
			if err != nil {
				return nil, err
			}
			return &lockedIdx{t: nt}, nil
		}
		return &lockedIdx{t: t}, rec, nil
	case KindPTree:
		pool := poolMB(poolMBs, lat)
		t, err := core.Create(pool, core.Config{Variant: core.VariantPTree, LeafCap: 32, InnerFanout: 4096})
		if err != nil {
			return nil, nil, err
		}
		rec := func() (tatp.Index, error) {
			pool.Crash()
			nt, err := core.Open(pool)
			if err != nil {
				return nil, err
			}
			return &lockedIdx{t: nt}, nil
		}
		return &lockedIdx{t: t}, rec, nil
	case KindNVTree:
		pool := poolMB(poolMBs, lat)
		t, err := nvtree.New(pool, nvtree.Config{LeafCap: 1024, InnerCap: 8})
		if err != nil {
			return nil, nil, err
		}
		rec := func() (tatp.Index, error) {
			pool.Crash()
			nt, err := nvtree.Open(pool, 8)
			if err != nil {
				return nil, err
			}
			return &lockedIdx{t: nt}, nil
		}
		return &lockedIdx{t: t}, rec, nil
	case KindWBTree:
		pool := poolMB(poolMBs, lat)
		t, err := wbtree.New(pool, wbtree.Config{InnerCap: 32, LeafCap: 63})
		if err != nil {
			return nil, nil, err
		}
		rec := func() (tatp.Index, error) {
			pool.Crash()
			nt, err := wbtree.Open(pool)
			if err != nil {
				return nil, err
			}
			return &lockedIdx{t: nt}, nil
		}
		return &lockedIdx{t: t}, rec, nil
	case KindSTXTree:
		t := stx.NewUint64()
		rec := func() (tatp.Index, error) {
			// A transient index must be rebuilt from scratch after a crash.
			nt := stx.NewUint64()
			return &lockedIdx{t: stxIdx{nt, true}}, nil
		}
		return &lockedIdx{t: stxIdx{t, false}}, rec, nil
	}
	return nil, nil, fmt.Errorf("bench: no TATP index for kind %q", kind)
}

type stxIdx struct {
	t     *stx.Tree[uint64, uint64]
	empty bool
}

func (a stxIdx) Insert(k, v uint64) error     { a.t.Insert(k, v); return nil }
func (a stxIdx) Find(k uint64) (uint64, bool) { return a.t.Find(k) }

// Fig12TATP reproduces Figure 12: TATP read-only throughput and database
// restart time per dictionary index, across SCM latencies.
func Fig12TATP(w io.Writer, subscribers, txns, clients int, latencies []int) error {
	fmt.Fprintf(w, "# Figure 12: TATP with %d subscribers, %d clients\n", subscribers, clients)
	fmt.Fprintf(w, "%-10s %8s %14s %14s\n", "index", "lat(ns)", "TX/s", "restart(ms)")
	for _, lat := range latencies {
		for _, kind := range []Kind{KindFPTree, KindPTree, KindNVTree, KindWBTree, KindSTXTree} {
			latCfg := LatencyNS(lat, true)
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
				if si, ok := nidx.(*lockedIdx); ok {
					if sx, ok := si.t.(stxIdx); ok && sx.empty {
						for row := 0; row < subscribers; row++ {
							sx.t.Insert(uint64(row+1), uint64(row))
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
				pool = poolMB(mb, LatencyNS(lat, true))
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
