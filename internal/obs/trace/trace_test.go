package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fptree/internal/htm"
	"fptree/internal/obs"
)

// fakeCosts is a CostSource whose counters the test advances by hand.
type fakeCosts struct {
	flushes, fences uint64
}

func (c *fakeCosts) FlushFence() (uint64, uint64) { return c.flushes, c.fences }

// TestNilTracerAndSpan pins the disabled-tracing contract: every method on a
// nil tracer and a nil span is a no-op, so instrumentation sites need no
// guards beyond the one sampling branch.
func TestNilTracerAndSpan(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(OpFind)
	if sp != nil {
		t.Fatalf("nil tracer produced a span")
	}
	sp.Enter(PhaseLeaf)
	sp.Abort(htm.AbortDescend)
	sp.Fallback()
	sp.Finish()
	if got := tr.Totals(); got != nil {
		t.Fatalf("nil tracer totals = %v, want nil", got)
	}
	if spans, recorded, dropped := tr.Spans(); len(spans) != 0 || recorded != 0 || dropped != 0 {
		t.Fatalf("nil tracer spans = %d/%d/%d", len(spans), recorded, dropped)
	}
}

// TestSampling checks the 1-in-N ticket arithmetic: exactly one span per
// SampleEvery starts.
func TestSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 4})
	var sampled int
	for i := 0; i < 64; i++ {
		if sp := tr.Start(OpFind); sp != nil {
			sampled++
			sp.Finish()
		}
	}
	if sampled != 16 {
		t.Fatalf("sampled %d of 64 at 1-in-4, want 16", sampled)
	}
}

// TestSpanAttribution drives one span through phases with a hand-advanced
// cost source and checks the phase/flush/fence bookkeeping end to end.
func TestSpanAttribution(t *testing.T) {
	costs := &fakeCosts{}
	tr := New(Config{SampleEvery: 1, Costs: costs})

	sp := tr.Start(OpInsert)
	if sp == nil {
		t.Fatalf("1-in-1 sampling did not start a span")
	}
	sp.Enter(PhaseDescend)
	sp.Abort(htm.AbortDescend)
	sp.Abort(htm.AbortLeafLock)
	costs.flushes, costs.fences = 3, 2 // descend-phase cost
	sp.Enter(PhaseLeaf)
	costs.flushes, costs.fences = 10, 6 // leaf-phase cost: +7 / +4
	sp.Finish()

	if sp.Flushes[PhaseDescend] != 3 || sp.Fences[PhaseDescend] != 2 {
		t.Fatalf("descend costs = %d/%d, want 3/2", sp.Flushes[PhaseDescend], sp.Fences[PhaseDescend])
	}
	if sp.Flushes[PhaseLeaf] != 7 || sp.Fences[PhaseLeaf] != 4 {
		t.Fatalf("leaf costs = %d/%d, want 7/4", sp.Flushes[PhaseLeaf], sp.Fences[PhaseLeaf])
	}

	tots := tr.Totals()
	if len(tots) != 1 || tots[0].Op != OpInsert || tots[0].Count != 1 || tots[0].Aborts != 2 {
		t.Fatalf("totals = %+v", tots)
	}
	by := tr.AbortsByCause()
	if by[htm.AbortDescend] != 1 || by[htm.AbortLeafLock] != 1 {
		t.Fatalf("aborts by cause = %v", by)
	}
}

// TestConcurrentRingWraparound hammers a small ring from many goroutines and
// checks the lock-free accounting invariant: every published span is either
// retained or counted as dropped, and retained seqs are unique.
func TestConcurrentRingWraparound(t *testing.T) {
	const (
		workers = 8
		each    = 400
	)
	tr := New(Config{SampleEvery: 1, RingSize: 64})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sp := tr.Start(OpFind)
				sp.Enter(PhaseDescend)
				sp.Finish()
			}
		}()
	}
	wg.Wait()

	spans, recorded, dropped := tr.Spans()
	if recorded != workers*each {
		t.Fatalf("recorded = %d, want %d", recorded, workers*each)
	}
	if dropped == 0 {
		t.Fatalf("expected drops on a %d-slot ring after %d spans", 64, workers*each)
	}
	if got := uint64(len(spans)) + dropped; got != recorded {
		t.Fatalf("retained %d + dropped %d = %d, want recorded %d", len(spans), dropped, got, recorded)
	}
	seen := make(map[uint64]bool, len(spans))
	last := uint64(0)
	for i, sp := range spans {
		if seen[sp.Seq] {
			t.Fatalf("duplicate seq %d", sp.Seq)
		}
		seen[sp.Seq] = true
		if i > 0 && sp.Seq <= last {
			t.Fatalf("spans not sorted by seq: %d after %d", sp.Seq, last)
		}
		last = sp.Seq
	}
}

// TestReportRoundTrip encodes a live tracer's report to JSON and strict-
// decodes it back, pinning the /debug/traces wire schema.
func TestReportRoundTrip(t *testing.T) {
	costs := &fakeCosts{}
	tr := New(Config{SampleEvery: 1, Costs: costs, SlowOp: time.Nanosecond})

	sp := tr.Start(OpUpsert)
	sp.Enter(PhaseDescend)
	sp.Abort(htm.AbortPostLock)
	costs.flushes, costs.fences = 5, 3
	sp.Enter(PhaseSMO)
	costs.flushes, costs.fences = 9, 4
	sp.Finish()

	rep := BuildReport(tr)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	back, err := DecodeReport(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.SampleEvery != 1 || back.Recorded != 1 || back.SlowSpans != 1 {
		t.Fatalf("round-tripped header = %+v", back)
	}
	if len(back.Spans) != 1 || back.Spans[0].Op != "upsert" || back.Spans[0].Aborts != 1 {
		t.Fatalf("round-tripped spans = %+v", back.Spans)
	}
	if back.AbortsByCause["post_lock"] != 1 {
		t.Fatalf("aborts_by_cause = %v", back.AbortsByCause)
	}
	if got := back.FlushSum(); got != 9 {
		t.Fatalf("FlushSum = %d, want 9", got)
	}
}

// TestDecodeReportRejectsUnknownFields checks the strict decoder catches
// schema drift.
func TestDecodeReportRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeReport([]byte(`{"sample_every":1,"bogus_field":true}`)); err == nil {
		t.Fatalf("unknown field accepted")
	}
}

// TestFlushSumExcludesRequestOps: request spans wrap engine spans, so their
// attributed flushes must not double into the sum≈cumulative check.
func TestFlushSumExcludesRequestOps(t *testing.T) {
	costs := &fakeCosts{}
	tr := New(Config{SampleEvery: 1, Costs: costs})

	req := tr.Start(OpReqSet)
	req.Enter(PhaseStore)
	eng := tr.Start(OpInsert)
	eng.Enter(PhaseLeaf)
	costs.flushes = 4
	eng.Finish()
	req.Finish()

	rep := BuildReport(tr)
	if got := rep.FlushSum(); got != 4 {
		t.Fatalf("FlushSum = %d, want 4 (engine only; req_set repeats the same flushes)", got)
	}
}

// TestSlowLog checks that a finished span over the threshold lands in the
// event ring as a formatted trace.slow line.
func TestSlowLog(t *testing.T) {
	ring := obs.NewEventRing(16)
	tr := New(Config{SampleEvery: 1, SlowOp: time.Nanosecond, Events: ring})

	sp := tr.Start(OpDelete)
	sp.Enter(PhaseLeaf)
	time.Sleep(time.Millisecond)
	sp.Finish()

	if tr.SlowSpans() != 1 {
		t.Fatalf("slow spans = %d, want 1", tr.SlowSpans())
	}
	evs := ring.Events()
	if len(evs) != 1 || evs[0].Kind != "trace.slow" {
		t.Fatalf("events = %+v", evs)
	}
	if !strings.Contains(evs[0].Msg, "delete took") || !strings.Contains(evs[0].Msg, "leaf=") {
		t.Fatalf("slow line %q missing op/phase text", evs[0].Msg)
	}
}

// TestRegisterMetrics checks the tracer's Prometheus surface renders, and
// that a per-phase histogram is named in seconds and exported in seconds.
func TestRegisterMetrics(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	start := time.Now()
	sp := tr.Start(OpFind)
	sp.Enter(PhaseDescend)
	time.Sleep(2 * time.Millisecond)
	sp.Finish()
	elapsed := time.Since(start)

	reg := obs.NewRegistry()
	tr.RegisterMetrics(reg, "trace")
	snap := reg.Snapshot()
	if got := snap.Get("trace_spans_sampled_total"); got != 1 {
		t.Fatalf("trace_spans_sampled_total = %v, want 1", got)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(b.String(), "\ntrace_phase_descend_seconds_sum ")
	var sum float64
	if _, err := fmt.Sscan(after, &sum); !ok || err != nil {
		t.Fatalf("no trace_phase_descend_seconds_sum sample:\n%s", b.String())
	}
	if sum < 0.002 || sum > elapsed.Seconds() {
		t.Fatalf("descend phase sum = %v s, want within [0.002, %v] s", sum, elapsed.Seconds())
	}
}
