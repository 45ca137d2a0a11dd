package kvserver

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"fptree/internal/htm"
	"fptree/internal/obs"
)

// TestAttachAdaptiveSharded: one controller per shard, each wired into its
// shard tree, and only concurrent stores get one.
func TestAttachAdaptiveSharded(t *testing.T) {
	ss := newShardedFPTreeC(t, 4)
	ctrls := AttachAdaptive(ss, htm.AdaptiveConfig{Floor: 3, Ceiling: 9})
	if len(ctrls) != 4 {
		t.Fatalf("attached %d controllers, want 4", len(ctrls))
	}
	for i, c := range ctrls {
		if got := ss.Shard(i).(*treeStore).t.Controller(); got != c {
			t.Fatalf("shard %d: controller not installed", i)
		}
		if cfg := c.Config(); cfg.Floor != 3 || cfg.Ceiling != 9 {
			t.Fatalf("shard %d: config [%d,%d]", i, cfg.Floor, cfg.Ceiling)
		}
	}

	// Non-concurrent stores refuse: a controller only attaches where it
	// steers a live retry loop.
	hm := NewHashMapStore()
	if got := AttachAdaptive(hm, htm.AdaptiveConfig{}); got != nil {
		t.Fatalf("hashmap store accepted %d controllers", len(got))
	}
	fp, _ := EngineByName("fptree")
	lk, err := fp.Create(pool())
	if err != nil {
		t.Fatal(err)
	}
	if got := AttachAdaptive(lk, htm.AdaptiveConfig{}); got != nil {
		t.Fatalf("locked single-threaded store accepted %d controllers", len(got))
	}
}

// TestAttachAdaptiveSingle: an unsharded concurrent store gets exactly one
// controller and its tree sees it.
func TestAttachAdaptiveSingle(t *testing.T) {
	st, err := NewFPTreeCStore(pool())
	if err != nil {
		t.Fatal(err)
	}
	ctrls := AttachAdaptive(st, htm.AdaptiveConfig{})
	if len(ctrls) != 1 {
		t.Fatalf("attached %d controllers, want 1", len(ctrls))
	}
	if got := st.(*treeStore).t.Controller(); got != ctrls[0] {
		t.Fatal("controller not installed on the tree")
	}
}

// TestShardedAdaptiveMetrics: with controllers attached, the router exposes
// the aggregate fallback/adaptation counters, the min-budget gauge, and the
// per-shard labeled budget/EWMA series, and serving traffic moves them.
func TestShardedAdaptiveMetrics(t *testing.T) {
	ss := newShardedFPTreeC(t, 2)
	ctrls := AttachAdaptive(ss, htm.AdaptiveConfig{AdaptEvery: 32})
	if len(ctrls) != 2 {
		t.Fatalf("attached %d controllers", len(ctrls))
	}
	for i := 0; i < 200; i++ {
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
		"htm_fallback_entries_total ",
		`htm_fallback_entries_total{shard="0"}`,
		"htm_adaptive_adaptations_total ",
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("missing series %q in exposition:\n%s", series, out)
		}
	}
	var adapted uint64
	for _, c := range ctrls {
		adapted += c.Stats.Adaptations.Load()
	}
	if adapted == 0 {
		t.Fatal("no adaptation windows fired under 400 routed ops with AdaptEvery=32")
	}
}
