package kvserver

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"fptree/internal/obs"
	"fptree/internal/obs/trace"
	"fptree/internal/scm"
)

// Every store type implements the whole contract.
var (
	_ Store = (*treeStore)(nil)
	_ Store = (*mapStore)(nil)
	_ Store = (*ShardedStore)(nil)
)

// contractFleet opens engine e as memkv does: n arenas under path (none for
// a transient engine), one store per arena created or recovered, the router
// in front when n > 1.
func contractFleet(t *testing.T, e Engine, path string, n int) (Store, []*scm.Pool) {
	t.Helper()
	var pools []*scm.Pool
	recovered := make([]bool, n)
	if e.Open != nil {
		var err error
		if pools, recovered, err = scm.OpenFileShards(path, n, 8<<20, scm.LatencyConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	stores, err := BuildShardStores(n, func(i int) (Store, error) {
		switch {
		case pools == nil:
			return e.Create(nil)
		case recovered[i] && e.HasImage(pools[i]):
			return e.Open(pools[i], 2)
		}
		return e.Create(pools[i])
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 1 {
		return stores[0], pools
	}
	ss, err := NewShardedStore(stores, pools)
	if err != nil {
		t.Fatal(err)
	}
	return ss, pools
}

// TestStoreContract runs every row of the engine table, bare and behind a
// 3-shard router, through the whole Store contract: a seeded differential
// against a map, size and invariants, the value limit, metrics and tracer
// answered by every store alike, the retry controller's gauges on every
// shard of the concurrent FPTree with nobody attaching anything, and — for
// the engines that have a persistent form — the same contents after close
// and reopen.
func TestStoreContract(t *testing.T) {
	coreTree := map[string]bool{"fptreec": true, "fptree": true, "ptree": true}
	for _, e := range Engines {
		for _, n := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/%d", e.Name, n), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "data")
				st, pools := contractFleet(t, e, path, n)
				if st.NumShards() != n {
					t.Fatalf("NumShards = %d, want %d", st.NumShards(), n)
				}
				for i := 0; i < n; i++ {
					sh := st.Shard(i)
					if n == 1 && sh != st {
						t.Fatal("the only shard of an unsharded store is not the store")
					}
					if ts, ok := sh.(*treeStore); ok && (ts.mu == nil) != e.Concurrent {
						t.Fatalf("shard %d: global lock present = %v on an engine with Concurrent = %v", i, ts.mu != nil, e.Concurrent)
					}
				}

				tr := trace.New(trace.Config{SampleEvery: 1})
				srv, _, err := ServeConfig("127.0.0.1:0", st, Config{Pools: pools, Tracer: tr})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()

				oracle := map[string]string{}
				rng := rand.New(rand.NewSource(int64(n)))
				for i := 0; i < 1500; i++ {
					k := fmt.Sprintf("key-%04d", rng.Intn(300))
					if rng.Intn(3) < 2 {
						v := fmt.Sprintf("val-%d", i)
						if err := st.Set([]byte(k), []byte(v)); err != nil {
							t.Fatal(err)
						}
						oracle[k] = v
					} else {
						found, err := st.Delete([]byte(k))
						if _, want := oracle[k]; err != nil || found != want {
							t.Fatalf("delete(%s) = %v,%v, oracle has it: %v", k, found, err, want)
						}
						delete(oracle, k)
					}
				}
				big := []byte(strings.Repeat("x", MaxValueSize+1))
				if err := st.Set([]byte("big"), big); !errors.Is(err, ErrValueTooLarge) {
					t.Fatalf("Set oversized = %v, want ErrValueTooLarge", err)
				}
				check := func(st Store, when string) {
					t.Helper()
					if st.Len() != len(oracle) {
						t.Fatalf("%s: Len = %d, oracle has %d", when, st.Len(), len(oracle))
					}
					for k, want := range oracle {
						if v, ok := st.Get([]byte(k)); !ok || string(v) != want {
							t.Fatalf("%s: get(%s) = %q,%v, want %q", when, k, v, ok, want)
						}
					}
					if _, ok := st.Get([]byte("big")); ok {
						t.Fatalf("%s: the oversized value was stored", when)
					}
					if err := st.CheckInvariants(); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}
				check(st, "live")

				// The core trees hand their operations to the tracer; the
				// others take it and stay silent.
				engineSpans := false
				for _, tot := range tr.Totals() {
					if tot.Op == trace.OpUpsert && tot.Count > 0 {
						engineSpans = true
					}
				}
				if engineSpans != coreTree[e.Name] {
					t.Fatalf("engine spans recorded = %v", engineSpans)
				}

				reg := obs.NewRegistry()
				srv.RegisterMetrics(reg)
				var buf bytes.Buffer
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Fatal(err)
				}
				if err := obs.ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
				}
				snap := reg.Snapshot()
				// A fallback lock lives where it bounds a retry loop: one
				// per shard of the concurrent FPTree, none anywhere else.
				var fallback []string
				for _, name := range []string{"htm_fallbacks_total", "htm_fallback_held"} {
					fallback = append(fallback, name)
					for i := 0; n > 1 && i < n; i++ {
						fallback = append(fallback, obs.Series(name, obs.ShardLabel(i)))
					}
				}
				for _, series := range fallback {
					if _, ok := snap[series]; ok != (e.Name == "fptreec") {
						t.Fatalf("%s exposed = %v", series, ok)
					}
				}
				noAdaptiveSeries(t, snap)
				if searches := snap["fptree_searches_total"]; (searches > 0) != coreTree[e.Name] {
					t.Fatalf("fptree_searches_total = %v", searches)
				}

				if e.Open == nil {
					return
				}
				srv.Close()
				if err := scm.ClosePools(pools); err != nil {
					t.Fatal(err)
				}
				st2, pools2 := contractFleet(t, e, path, n)
				defer scm.ClosePools(pools2) //nolint:errcheck
				check(st2, "reopened")
			})
		}
	}
}
