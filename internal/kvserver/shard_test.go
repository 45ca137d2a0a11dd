package kvserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fptree/internal/obs"
	"fptree/internal/scm"
)

func newShardedFPTreeC(t *testing.T, n int) *ShardedStore {
	t.Helper()
	ss, _ := newShardedFPTreeCPools(t, n)
	return ss
}

// newShardedFPTreeCPools also returns the pool behind each shard, for the
// tests that serve the fleet with Config.Pools.
func newShardedFPTreeCPools(t *testing.T, n int) (*ShardedStore, []*scm.Pool) {
	t.Helper()
	pools := make([]*scm.Pool, n)
	stores := make([]Store, n)
	for i := range stores {
		pools[i] = pool()
		st, err := NewFPTreeCStore(pools[i])
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	ss, err := NewShardedStore(stores, pools)
	if err != nil {
		t.Fatal(err)
	}
	return ss, pools
}

// TestStoreSetZeroAlloc pins the served write path's allocation count (the
// counterpart of core.TestCVarUpdateZeroAlloc one layer up): an overwriting
// SET through the router frames its value in a pooled buffer and the engine
// writes the frame straight into the slot, so nothing is allocated — with the
// benchmark's 32-byte value and with one that fills the slot. A GET allocates
// exactly the value it returns.
func TestStoreSetZeroAlloc(t *testing.T) {
	ss := newShardedFPTreeC(t, 2)
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%012d", i))
		if err := ss.Set(keys[i], []byte("first")); err != nil {
			t.Fatal(err)
		}
	}
	for _, val := range [][]byte{bytes.Repeat([]byte("v"), 32), bytes.Repeat([]byte("w"), MaxValueSize)} {
		i := 0
		if allocs := testing.AllocsPerRun(500, func() {
			if err := ss.Set(keys[i%len(keys)], val); err != nil {
				t.Fatal(err)
			}
			i++
		}); allocs != 0 {
			t.Errorf("Set of a %d-byte value: %.2f allocs/op, want 0", len(val), allocs)
		}
		if allocs := testing.AllocsPerRun(500, func() {
			if v, ok := ss.Get(keys[i%len(keys)]); !ok || !bytes.Equal(v, val) {
				t.Fatalf("Get = %q, %v", v, ok)
			}
			i++
		}); allocs != 1 {
			t.Errorf("Get of a %d-byte value: %.2f allocs/op, want 1", len(val), allocs)
		}
	}
}

// TestShardForStable pins the key→shard mapping: it must be a pure function
// of (key, shard count) — no process state — because the per-shard arena
// files persist the partition across restarts. A drift here would strand
// every persisted key on the wrong shard.
func TestShardForStable(t *testing.T) {
	a := newShardedFPTreeC(t, 4)
	b := newShardedFPTreeC(t, 4)
	counts := make([]int, 4)
	for i := 0; i < 4096; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		sa, sb := a.ShardFor(k), b.ShardFor(k)
		if sa != sb {
			t.Fatalf("ShardFor(%s) differs across instances: %d vs %d", k, sa, sb)
		}
		if sa < 0 || sa >= 4 {
			t.Fatalf("ShardFor(%s) = %d out of range", k, sa)
		}
		counts[sa]++
	}
	// The hash must spread keys: with 4096 keys over 4 shards, each shard
	// should hold roughly 1024; a shard below 1/4 of that indicates a broken
	// hash, not bad luck.
	for i, c := range counts {
		if c < 256 {
			t.Fatalf("shard %d holds only %d/4096 keys: %v", i, c, counts)
		}
	}
	// One bucket degenerates to the identity mapping.
	one := newShardedFPTreeC(t, 1)
	if got := one.ShardFor([]byte("anything")); got != 0 {
		t.Fatalf("ShardFor with 1 shard = %d", got)
	}
}

// TestShardedStoreDifferential checks the router against a plain map oracle:
// routing must never lose, duplicate or misdeliver a key.
func TestShardedStoreDifferential(t *testing.T) {
	ss := newShardedFPTreeC(t, 4)
	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key-%04d", rng.Intn(800))
		switch rng.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("val-%d", i)
			if err := ss.Set([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			oracle[k] = v
		case 2:
			found, err := ss.Delete([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			if _, want := oracle[k]; found != want {
				t.Fatalf("delete(%s) found=%v, oracle=%v", k, found, want)
			}
			delete(oracle, k)
		}
	}
	if ss.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle has %d", ss.Len(), len(oracle))
	}
	for k, want := range oracle {
		v, ok := ss.Get([]byte(k))
		if !ok || string(v) != want {
			t.Fatalf("get(%s) = %q,%v, want %q", k, v, ok, want)
		}
	}
	if err := ss.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func openShardedFromFiles(t *testing.T, path string, n int) (*ShardedStore, []*scm.Pool, []bool) {
	t.Helper()
	pools, recovered, err := scm.OpenFileShards(path, n, 16<<20, scm.LatencyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stores, err := BuildShardStores(n, func(i int) (Store, error) {
		if recovered[i] {
			return OpenFPTreeCStore(pools[i], 2)
		}
		return NewFPTreeCStore(pools[i])
	})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardedStore(stores, pools)
	if err != nil {
		t.Fatal(err)
	}
	return ss, pools, recovered
}

// TestShardedRestartRecoversAllShards persists keys across a fleet of shard
// files, closes cleanly, reopens, and requires every key back — which holds
// only if the hash is restart-stable AND every shard file recovered.
func TestShardedRestartRecoversAllShards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data")
	const n = 4

	ss, pools, recovered := openShardedFromFiles(t, path, n)
	for _, r := range recovered {
		if r {
			t.Fatal("fresh files reported recovered")
		}
	}
	const keys = 500
	for i := 0; i < keys; i++ {
		if err := ss.Set([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := scm.ClosePools(pools); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := os.Stat(scm.ShardPath(path, i)); err != nil {
			t.Fatalf("shard file %d: %v", i, err)
		}
	}

	ss2, pools2, recovered2 := openShardedFromFiles(t, path, n)
	for i, r := range recovered2 {
		if !r {
			t.Fatalf("shard %d did not recover", i)
		}
	}
	if ss2.Len() != keys {
		t.Fatalf("recovered Len = %d, want %d", ss2.Len(), keys)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%04d", i)
		v, ok := ss2.Get([]byte(k))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("after restart get(%s) = %q,%v", k, v, ok)
		}
	}
	if err := ss2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Reopening narrower than the on-disk fleet must fail loudly, not
	// silently strand the keys of the dropped shards.
	if err := scm.ClosePools(pools2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := scm.OpenFileShards(path, n/2, 16<<20, scm.LatencyConfig{}); err == nil {
		t.Fatal("opening 4-shard fleet with 2 shards succeeded")
	}
}

// TestShardedServerStats drives `stats` and `stats shards` over TCP against a
// sharded server: the flat form reports the fleet width and pool counters
// summed across shards; the verbose form breaks them out per shard.
func TestShardedServerStats(t *testing.T) {
	ss, pools := newShardedFPTreeCPools(t, 4)
	var wantBytes int64
	for _, p := range pools {
		wantBytes += p.Size()
	}
	srv, addr, err := ServeConfig("127.0.0.1:0", ss, Config{Pools: pools})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial(t, addr)
	defer c.Close()

	const keys = 64
	for i := 0; i < keys; i++ {
		if err := c.Set([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["shards"] != "4" {
		t.Fatalf("stats shards = %q", stats["shards"])
	}
	if stats["engine"] != "FPTreeC[4 shards]" {
		t.Fatalf("engine = %q", stats["engine"])
	}
	if stats["scm_pool_bytes"] != fmt.Sprint(wantBytes) {
		t.Fatalf("scm_pool_bytes = %q, want %d (sum of shard pools)", stats["scm_pool_bytes"], wantBytes)
	}
	var gotWrites uint64
	if _, err := fmt.Sscan(stats["scm_writes"], &gotWrites); err != nil {
		t.Fatalf("scm_writes = %q: %v", stats["scm_writes"], err)
	}
	var wantWrites uint64
	for _, p := range pools {
		wantWrites += p.Stats().Writes.Load()
	}
	if gotWrites == 0 || gotWrites > wantWrites {
		t.Fatalf("scm_writes = %d, fleet total %d", gotWrites, wantWrites)
	}

	// Verbose per-shard form.
	per, err := c.Stats("shards")
	if err != nil {
		t.Fatal(err)
	}
	if per["shards"] != "4" {
		t.Fatalf("stats shards: shards = %q", per["shards"])
	}
	lenSum := 0
	for i := 0; i < 4; i++ {
		pfx := fmt.Sprintf("shard%d_", i)
		if per[pfx+"engine"] != "FPTreeC" {
			t.Fatalf("%sengine = %q", pfx, per[pfx+"engine"])
		}
		var n int
		if _, err := fmt.Sscan(per[pfx+"len"], &n); err != nil {
			t.Fatalf("%slen = %q", pfx, per[pfx+"len"])
		}
		if n == 0 {
			t.Fatalf("shard %d is empty; %d keys should spread over 4 shards", i, keys)
		}
		lenSum += n
		// Every scm line of `stats` is there per shard too, from one table.
		for _, name := range scm.StatNames() {
			if _, ok := per[pfx+"scm_"+name]; !ok || stats["scm_"+name] == "" {
				t.Fatalf("scm_%s: per shard %q, fleet %q", name, per[pfx+"scm_"+name], stats["scm_"+name])
			}
		}
		if per[pfx+"scm_writes"] == "0" || per[pfx+"scm_pool_bytes"] != fmt.Sprint(pools[i].Size()) {
			t.Fatalf("%sscm_writes = %q, %sscm_pool_bytes = %q", pfx, per[pfx+"scm_writes"], pfx, per[pfx+"scm_pool_bytes"])
		}
	}
	if lenSum != keys {
		t.Fatalf("per-shard lens sum to %d, want %d", lenSum, keys)
	}
}

// TestStatsShardsOnUnshardedServer: an unsharded store answers the verbose
// form as a fleet of one — the same lines, for shard 0 — and `stats` reports
// its width as 1.
func TestStatsShardsOnUnshardedServer(t *testing.T) {
	for _, e := range Engines {
		t.Run(e.Name, func(t *testing.T) {
			var p *scm.Pool // a transient engine takes none
			var pools []*scm.Pool
			if e.Open != nil {
				p = pool()
				pools = []*scm.Pool{p}
			}
			st, err := e.Create(p)
			if err != nil {
				t.Fatal(err)
			}
			srv, addr, err := ServeConfig("127.0.0.1:0", st, Config{Pools: pools})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c := dial(t, addr)
			defer c.Close()
			if err := c.Set([]byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			flat, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			per, err := c.Stats("shards")
			if err != nil {
				t.Fatal(err)
			}
			if flat["shards"] != "1" || per["shards"] != "1" {
				t.Fatalf("shards = %q in stats, %q in stats shards", flat["shards"], per["shards"])
			}
			if per["shard0_engine"] != st.Name() || per["shard0_len"] != "1" {
				t.Fatalf("shard0_engine = %q, shard0_len = %q", per["shard0_engine"], per["shard0_len"])
			}
			// One pool: the shard's scm lines are the fleet's.
			_, hasPool := per["shard0_scm_pool_bytes"]
			if hasPool != (pools != nil) || per["shard0_scm_pool_bytes"] != flat["scm_pool_bytes"] {
				t.Fatalf("shard0_scm_pool_bytes = %q, scm_pool_bytes = %q", per["shard0_scm_pool_bytes"], flat["scm_pool_bytes"])
			}
		})
	}
}

// TestShardedMetricsRegistry: a sharded fleet registers the canonical
// unlabeled tree/HTM counters (summed) plus per-shard labeled series, and
// the resulting exposition parses.
func TestShardedMetricsRegistry(t *testing.T) {
	ss, pools := newShardedFPTreeCPools(t, 4)
	srv, addr, err := ServeConfig("127.0.0.1:0", ss, Config{Pools: pools})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial(t, addr)
	defer c.Close()
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		if err := c.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := c.GetAppend(nil, k); err != nil || !ok {
			t.Fatalf("get = %v,%v", ok, err)
		}
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
	agg, ok := snap["fptree_searches_total"]
	if !ok || agg == 0 {
		t.Fatalf("aggregate fptree_searches_total = %v,%v", agg, ok)
	}
	var labeledSum float64
	for i := 0; i < 4; i++ {
		series := obs.Series("fptree_searches_total", obs.ShardLabel(i))
		v, ok := snap[series]
		if !ok {
			t.Fatalf("missing %s in snapshot", series)
		}
		labeledSum += v
	}
	if labeledSum != agg {
		t.Fatalf("per-shard searches sum to %v, aggregate is %v", labeledSum, agg)
	}
	for i := 0; i < 4; i++ {
		series := obs.Series("scm_writes_total", obs.ShardLabel(i))
		if _, ok := snap[series]; !ok {
			t.Fatalf("missing %s in snapshot", series)
		}
		series = obs.Series("memkv_shard_len", obs.ShardLabel(i))
		if v, ok := snap[series]; !ok || v == 0 {
			t.Fatalf("%s = %v,%v", series, v, ok)
		}
	}
}
