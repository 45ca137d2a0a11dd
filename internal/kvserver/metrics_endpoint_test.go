package kvserver

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"fptree/internal/obs"
	"fptree/internal/scm"
)

// TestMetricsEndpointEndToEnd drives the full memkv observability path
// in-process: FPTreeC store + server + obs HTTP endpoint, some protocol
// traffic, then a /metrics scrape that must be valid Prometheus exposition
// and contain the paper-claim series the acceptance criteria name.
func TestMetricsEndpointEndToEnd(t *testing.T) {
	pool := scm.NewPool(64<<20, scm.LatencyConfig{})
	store, err := NewFPTreeCStore(pool)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewEventRing(64)
	srv, addr, err := ServeConfig("127.0.0.1:0", store, Config{Pools: []*scm.Pool{pool}, Events: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg)
	httpSrv, httpAddr, err := obs.Serve("127.0.0.1:0", reg, ring, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer httpSrv.Close()

	c := dial(t, addr)

	defer c.Close()
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key%03d", i))
		if err := c.Set(key, []byte("value")); err != nil {
			t.Fatalf("set %s: %v", key, err)
		}
	}
	for i := 0; i < 200; i++ {
		if _, hit, err := c.GetAppend(nil, []byte(fmt.Sprintf("key%03d", i))); err != nil || !hit {
			t.Fatalf("get key%03d: hit=%v err=%v", i, hit, err)
		}
	}

	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(body)
	if err := obs.ValidateExposition(strings.NewReader(exposition)); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, exposition)
	}
	for _, series := range []string{
		"fptree_fingerprint_false_positives_total",
		"fptree_searches_total",
		"scm_flushes_total",
		"scm_fences_total",
		"htm_fallbacks_total",
		"memkv_cmd_set_total 200",
		"memkv_cmd_get_total 200",
		"memkv_get_latency_seconds_count 200",
		"memkv_set_latency_seconds_bucket",
	} {
		if !strings.Contains(exposition, series) {
			t.Fatalf("/metrics missing %q:\n%s", series, exposition)
		}
	}
	// The workload flushed cache lines; the counter series must show it.
	snap := reg.Snapshot()
	if snap.Get("scm_flushes_total") == 0 {
		t.Fatal("scm_flushes_total is zero after 200 persisted sets")
	}
	if snap.Get("fptree_searches_total") == 0 {
		t.Fatal("fptree_searches_total is zero after 200 gets")
	}
}

func TestStatsDelta(t *testing.T) {
	before := map[string]string{
		"cmd_set": "10", "scm_flushes": "100", "engine": "FPTreeC", "gone": "1",
	}
	after := map[string]string{
		"cmd_set": "25", "scm_flushes": "180", "engine": "FPTreeC", "new": "5",
	}
	d := StatsDelta(before, after)
	if d["cmd_set"] != 15 || d["scm_flushes"] != 80 {
		t.Fatalf("delta = %v", d)
	}
	if _, ok := d["engine"]; ok {
		t.Fatal("non-numeric stat leaked into delta")
	}
	if _, ok := d["new"]; ok {
		t.Fatal("stat absent from before leaked into delta")
	}
	if _, ok := d["gone"]; ok {
		t.Fatal("stat absent from after leaked into delta")
	}
}

// TestMicrosecondsClampsNegative pins the stats rendering fix: a clock step
// must render as 0.0, not a negative latency.
func TestMicrosecondsClampsNegative(t *testing.T) {
	if got := microseconds(-5 * time.Microsecond); got != "0.0" {
		t.Fatalf("microseconds(-5us) = %q, want \"0.0\"", got)
	}
	if got := microseconds(1500 * time.Nanosecond); got != "1.5" {
		t.Fatalf("microseconds(1.5us) = %q", got)
	}
}
