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
// contention domain with its own controller at the default budget bounds,
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
		if cfg := c.Config(); cfg.Floor != htm.DefaultAdaptiveFloor || cfg.Ceiling != htm.DefaultAdaptiveCeiling {
			t.Fatalf("shard %d: config [%d,%d]", i, cfg.Floor, cfg.Ceiling)
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
// controller, and its metrics are the controller's.
func TestControllerSingleStore(t *testing.T) {
	st, err := NewFPTreeCStore(pool())
	if err != nil {
		t.Fatal(err)
	}
	c := controllerOf(st)
	if c == nil {
		t.Fatal("concurrent store has no controller")
	}
	reg := obs.NewRegistry()
	st.RegisterMetrics(reg)
	if got := reg.Snapshot()["htm_adaptive_budget"]; got != float64(c.Budget()) {
		t.Fatalf("htm_adaptive_budget = %v, controller says %d", got, c.Budget())
	}
}

// TestShardedAdaptiveMetrics: with nothing attached by anyone, the router
// exposes the aggregate fallback/adaptation counters, the min-budget gauge,
// and the per-shard labeled budget/EWMA series, and serving traffic moves
// them.
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
		"htm_adaptive_budget ",
		`htm_adaptive_budget{shard="0"}`,
		`htm_adaptive_abort_ewma{shard="1"}`,
		"htm_fallbacks_total ",
		`htm_fallbacks_total{shard="0"}`,
		"htm_adaptive_adaptations_total ",
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("missing series %q in exposition:\n%s", series, out)
		}
	}
	if got := reg.Snapshot()["htm_adaptive_adaptations_total"]; got == 0 {
		t.Fatalf("no adaptation windows fired under 800 routed ops with AdaptEvery=%d", htm.DefaultAdaptEvery)
	}
}
