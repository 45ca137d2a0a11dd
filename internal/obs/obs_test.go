package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistrySnapshotAndDelta(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "ops")
	g := reg.Gauge("test_conns", "conns")
	var ext uint64
	reg.CounterFunc("test_ext_total", "external", func() uint64 { return ext })

	c.Add(5)
	g.Set(3)
	ext = 10
	before := reg.Snapshot()
	if before.Get("test_ops_total") != 5 || before.Get("test_conns") != 3 || before.Get("test_ext_total") != 10 {
		t.Fatalf("snapshot = %v", before)
	}

	c.Add(7)
	c.Inc()
	g.Add(-1)
	ext = 25
	d := reg.Snapshot().Sub(before)
	if d.Get("test_ops_total") != 8 {
		t.Fatalf("counter delta = %v", d.Get("test_ops_total"))
	}
	if d.Get("test_conns") != -1 {
		t.Fatalf("gauge delta = %v", d.Get("test_conns"))
	}
	if d.Get("test_ext_total") != 15 {
		t.Fatalf("func counter delta = %v", d.Get("test_ext_total"))
	}
	if got := d.PerOp("test_ops_total", 4); got != 2 {
		t.Fatalf("PerOp = %v", got)
	}
	if got := d.Ratio("test_conns", "test_ops_total"); got != -0.125 {
		t.Fatalf("Ratio = %v", got)
	}
	if got := d.Ratio("test_conns", "test_missing"); got != 0 {
		t.Fatalf("Ratio with zero denominator = %v", got)
	}
}

func TestRegistryHistogramSnapshotSeries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_latency_seconds", "latency")
	h.Observe(time.Microsecond)
	h.Observe(3 * time.Microsecond)
	s := reg.Snapshot()
	if s.Get("test_latency_seconds_count") != 2 {
		t.Fatalf("hist count series = %v", s)
	}
	if s.Get("test_latency_seconds_sum_ns") != 4000 {
		t.Fatalf("hist sum series = %v", s)
	}
}

func TestRegistryRejectsDuplicatesAndBadNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup_total", "x")
	mustPanic(t, func() { reg.Counter("dup_total", "y") })
	mustPanic(t, func() { reg.Counter("bad name", "y") })
	mustPanic(t, func() { reg.Counter("1leading", "y") })
	mustPanic(t, func() { reg.Counter("", "y") })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	fn()
}

func TestRegistryConcurrentReadsRaceFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("race_total", "x")
	h := reg.Histogram("race_seconds", "x")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
				h.Observe(time.Microsecond)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		reg.Snapshot()
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestEventRing(t *testing.T) {
	r := NewEventRing(4)
	if r.Len() != 0 || len(r.Events()) != 0 {
		t.Fatalf("fresh ring not empty")
	}
	for i := 0; i < 6; i++ {
		r.Record("kind", "event %d", i)
	}
	ev := r.Events()
	if r.Len() != 4 || len(ev) != 4 {
		t.Fatalf("ring kept %d events", len(ev))
	}
	// Oldest two overwritten; survivors in order with stable sequence numbers.
	for i, e := range ev {
		if e.Seq != uint64(i+2) || e.Msg != "event "+string(rune('0'+i+2)) {
			t.Fatalf("event %d = %+v", i, e)
		}
		if e.Kind != "kind" || e.Time.IsZero() {
			t.Fatalf("event %d metadata = %+v", i, e)
		}
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "[kind] event 5") {
		t.Fatalf("WriteTo output:\n%s", b.String())
	}
}

func TestEventRingConcurrentRecord(t *testing.T) {
	r := NewEventRing(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record("g", "%d-%d", g, i)
				r.Events()
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 8 {
		t.Fatalf("ring len = %d", r.Len())
	}
	ev := r.Events()
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq != ev[i-1].Seq+1 {
			t.Fatalf("sequence gap: %d then %d", ev[i-1].Seq, ev[i].Seq)
		}
	}
}

// TestShardViewAggregates pins the one fleet rule: whatever registers on a
// plain registry under X registers X{shard="i"} through shard view i, and the
// registry derives the unlabeled X, the sum, ahead of its members.
func TestShardViewAggregates(t *testing.T) {
	reg := NewRegistry()
	var ops [3]*Counter
	for i := range ops {
		v := reg.Shard(i)
		ops[i] = v.Counter("fleet_ops_total", "ops")
		v.GaugeFunc("fleet_bytes", "bytes", func() float64 { return float64(10 * (i + 1)) })
	}
	plain := reg.Counter("plain_total", "not part of any fleet")
	plain.Add(2)

	// The scrape is race-clean while the shards count, and once they have
	// finished the unlabeled counter is exactly the sum of its members.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				ops[(g+i)%3].Inc()
				if i%100 == 0 {
					reg.Snapshot()
				}
			}
		}(g)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	snap := reg.Snapshot()
	var sum float64
	for i := range ops {
		sum += snap[Series("fleet_ops_total", ShardLabel(i))]
	}
	if got := snap["fleet_ops_total"]; got != 4000 || got != sum {
		t.Fatalf("fleet_ops_total = %v, members sum to %v, want 4000", got, sum)
	}
	if got := snap["fleet_bytes"]; got != 60 {
		t.Fatalf("fleet_bytes = %v, want the sum 60", got)
	}
	if got := snap["plain_total"]; got != 2 {
		t.Fatalf("plain_total = %v", got)
	}
	// A view reads the whole registry.
	if got := reg.Shard(1).Snapshot()["fleet_ops_total"]; got != 4000 {
		t.Fatalf("snapshot through a view: fleet_ops_total = %v", got)
	}

	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(strings.NewReader(b.String())); err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	// Each family is one block under one header, the unlabeled sample first.
	want := "# TYPE fleet_ops_total counter\nfleet_ops_total 4000\n" +
		"fleet_ops_total{shard=\"0\"} "
	if !strings.Contains(b.String(), want) {
		t.Fatalf("family is not led by its unlabeled sample:\n%s", b.String())
	}
	block := b.String()[strings.Index(b.String(), "# HELP fleet_ops_total"):]
	block = block[:strings.Index(block, "# HELP fleet_bytes")]
	if got := strings.Count(block, "fleet_ops_total"); got != 2+4 {
		t.Fatalf("fleet_ops_total block holds %d mentions, want header x2 + 4 samples:\n%s", got, block)
	}
}

// TestShardViewRefusals: a duplicate still panics through a view, a name
// cannot be both a plain series and a fleet family, and histograms and
// nested views are refused.
func TestShardViewRefusals(t *testing.T) {
	reg := NewRegistry()
	reg.Shard(0).Counter("fleet_total", "x")
	reg.Shard(1).Counter("fleet_total", "x")
	mustPanic(t, func() { reg.Shard(1).Counter("fleet_total", "x") })
	mustPanic(t, func() { reg.Counter("fleet_total", "x") })
	reg.Counter("plain_total", "x")
	mustPanic(t, func() { reg.Shard(0).Counter("plain_total", "x") })
	mustPanic(t, func() { reg.Shard(0).Histogram("fleet_seconds", "x") })
	mustPanic(t, func() {
		reg.Shard(0).GaugeFuncL("fleet_labeled", ShardLabel(2), "x", func() float64 { return 0 })
	})
	mustPanic(t, func() { reg.Shard(0).Shard(1) })
}

func TestEventRingStats(t *testing.T) {
	ring := NewEventRing(4)
	for i := 0; i < 10; i++ {
		ring.Record("k", "event %d", i)
	}
	recorded, dropped := ring.Stats()
	if recorded != 10 || dropped != 6 {
		t.Fatalf("stats = %d/%d, want 10/6", recorded, dropped)
	}
	evs := ring.Events()
	if len(evs) != 4 || evs[0].Seq != 6 {
		t.Fatalf("retained %d events, first seq %d; want 4 events from seq 6", len(evs), evs[0].Seq)
	}
}

// TestEventsEndpointDroppedHeader checks /debug/events surfaces the
// wraparound accounting in its header line.
func TestEventsEndpointDroppedHeader(t *testing.T) {
	ring := NewEventRing(4)
	for i := 0; i < 7; i++ {
		ring.Record("k", "event %d", i)
	}
	srv := httptest.NewServer(Handler(NewRegistry(), ring))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/events")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "# events recorded=7 retained=4 dropped=3") {
		t.Fatalf("missing dropped header in:\n%s", body)
	}
}
