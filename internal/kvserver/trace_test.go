package kvserver

import (
	"testing"
	"time"

	"fptree/internal/obs"
	"fptree/internal/obs/trace"
	"fptree/internal/scm"
)

// TestSlowOpAndTracing drives the server with an always-firing slow-op
// threshold and 1-in-1 span sampling, then checks all three observability
// surfaces at once: the always-on slow_ops counter and its event, and the
// sampled request + engine spans (the request span wraps the engine span of
// the same call, so both op families must appear).
func TestSlowOpAndTracing(t *testing.T) {
	p := pool()
	store, err := NewFPTreeCStore(p)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewEventRing(64)
	tr := trace.New(trace.Config{SampleEvery: 1, Costs: p.Stats(), Events: ring})
	srv, addr, err := ServeConfig("127.0.0.1:0", store, Config{
		Pools:           []*scm.Pool{p},
		Events:          ring,
		Tracer:          tr,
		SlowOpThreshold: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := dial(t, addr)

	defer c.Close()
	k := []byte("k")
	if err := c.Set(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.GetAppend(nil, k); err != nil || !ok || string(v) != "v" {
		t.Fatalf("get = %q,%v,%v", v, ok, err)
	}
	if found, err := c.Delete(k); err != nil || !found {
		t.Fatalf("delete = %v,%v", found, err)
	}
	// The server counts a slow request after it has queued the reply. One
	// more round trip on the connection orders the delete's count before the
	// check.
	if _, _, err := c.GetAppend(nil, k); err != nil {
		t.Fatal(err)
	}

	if got := srv.Metrics().SlowOps.Load(); got < 3 {
		t.Fatalf("slow_ops = %d, want >= 3 with a 1ns threshold", got)
	}
	var slowEvents int
	for _, e := range ring.Events() {
		if e.Kind == "slow" {
			slowEvents++
		}
	}
	if slowEvents < 3 {
		t.Fatalf("slow events = %d, want >= 3", slowEvents)
	}

	spans, recorded, _ := tr.Spans()
	if recorded == 0 {
		t.Fatal("no spans recorded")
	}
	seen := map[string]bool{}
	for _, sp := range spans {
		seen[sp.Op.String()] = true
	}
	for _, want := range []string{"req_set", "req_get", "req_delete", "upsert", "find", "delete"} {
		if !seen[want] {
			t.Fatalf("no %s span; saw %v", want, seen)
		}
	}
}

// TestSlowOpDisabledByDefault: with no threshold configured the counter
// must never move.
func TestSlowOpDisabledByDefault(t *testing.T) {
	store, err := NewFPTreeCStore(pool())
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := ServeConfig("127.0.0.1:0", store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial(t, addr)
	defer c.Close()
	if err := c.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().SlowOps.Load(); got != 0 {
		t.Fatalf("slow_ops = %d without a threshold, want 0", got)
	}
}
