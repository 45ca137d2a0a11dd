package kvserver

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"fptree/internal/htm"
	"fptree/internal/obs"
)

// controllerOf returns the retry controller of a tree-backed shard.
func controllerOf(st Store) *htm.AdaptiveController {
	return st.(*treeStore).t.(interface {
		Controller() *htm.AdaptiveController
	}).Controller()
}

// TestControllerPerShard: every shard of a concurrent fleet is its own
// contention domain with its own controller at the default budget,
// and a single-threaded tree behind the lock has none.
func TestControllerPerShard(t *testing.T) {
	ss := newShardedFPTreeC(t, 4)
	seen := map[*htm.AdaptiveController]bool{}
	for i := 0; i < ss.NumShards(); i++ {
		c := controllerOf(ss.Shard(i))
		if c == nil || seen[c] {
			t.Fatalf("shard %d: controller %p missing or shared with another shard", i, c)
		}
		seen[c] = true
		if b := c.Budget(); b != htm.DefaultMaxRetries {
			t.Fatalf("shard %d: budget %d, want %d", i, b, htm.DefaultMaxRetries)
		}
	}

	fp, _ := EngineByName("fptree")
	lk, err := fp.Create(pool())
	if err != nil {
		t.Fatal(err)
	}
	if c := controllerOf(lk); c != nil {
		t.Fatal("locked single-threaded store has a controller")
	}
}

// TestControllerSingleStore: an unsharded concurrent store has exactly one
// controller, and its metrics are the fallback lock's: entries and the held
// gauge, with no adaptive series beside them.
func TestControllerSingleStore(t *testing.T) {
	st, err := NewFPTreeCStore(pool())
	if err != nil {
		t.Fatal(err)
	}
	if controllerOf(st) == nil {
		t.Fatal("concurrent store has no controller")
	}
	reg := obs.NewRegistry()
	st.RegisterMetrics(reg)
	snap := reg.Snapshot()
	for _, series := range []string{"htm_fallbacks_total", "htm_fallback_held"} {
		if _, ok := snap[series]; !ok {
			t.Fatalf("%s not exported", series)
		}
	}
	noAdaptiveSeries(t, snap)
}

// noAdaptiveSeries fails if any htm_adaptive* series is exported: the budget
// is a constant, so there is nothing to watch it do.
func noAdaptiveSeries(t *testing.T, snap obs.Snapshot) {
	t.Helper()
	for _, name := range snap.Keys() {
		if strings.HasPrefix(name, "htm_adaptive") {
			t.Fatalf("%s exported", name)
		}
	}
}

// TestShardedAdaptiveMetrics: with nothing attached by anyone, the router
// exposes the fallback counter and held gauge, aggregate and per shard, and
// serving traffic leaves the gauge at rest.
func TestShardedAdaptiveMetrics(t *testing.T) {
	ss := newShardedFPTreeC(t, 2)
	for i := 0; i < 400; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		if err := ss.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, ok := ss.Get(k); !ok {
			t.Fatalf("key %d missing", i)
		}
	}
	reg := obs.NewRegistry()
	ss.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, series := range []string{
		"htm_fallbacks_total ",
		`htm_fallbacks_total{shard="0"}`,
		`htm_fallbacks_total{shard="1"}`,
		"htm_fallback_held ",
		`htm_fallback_held{shard="1"}`,
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("missing series %q in exposition:\n%s", series, out)
		}
	}
	snap := reg.Snapshot()
	if held := snap["htm_fallback_held"]; held != 0 {
		t.Fatalf("htm_fallback_held = %v with no writer in flight", held)
	}
	noAdaptiveSeries(t, snap)
}
