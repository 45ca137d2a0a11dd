// Package trace is the span-based latency-attribution layer of the
// observability stack. Where internal/obs answers "how many flushes has the
// tree issued, ever", trace answers "where inside THIS insert did the time
// and the flushes go" — the attribution the paper's §6 claims (network-bound
// server with ≤2% tree overhead; abort behavior under contention) need.
//
// Design constraints, in order:
//
//  1. Disabled tracing costs one predictable branch per span site. Every
//     instrumentation point holds a possibly-nil *Tracer; Start on a nil
//     tracer (and every method on the nil *Span it returns) is a nil check
//     and nothing else. No allocation, no time read, no atomic.
//  2. Sampling keeps enabled tracing cheap: Start takes a ticket from one
//     atomic counter and allocates a Span only for 1-in-SampleEvery ops.
//  3. Recording is lock-free: finished spans are published into a sharded
//     ring of atomic pointers (shards striped by sampling ticket, the
//     portable stand-in for a per-P ring), overwriting the oldest. A
//     wrapped ring reports how many spans it dropped.
//
// A Span divides an operation into phases (inner-node descent, leaf work,
// structure modification, request parse/store/reply). Entering a phase
// snapshots wall time and — when a CostSource is configured — the cumulative
// SCM flush/fence counters, so closing the phase attributes elapsed
// nanoseconds and persistence costs to it. Go has no per-goroutine counters,
// so cost deltas are exact in single-threaded runs and an upper bound (they
// include concurrent goroutines' activity) under contention; the sampled sum
// still converges on the true cumulative counters within sampling error,
// which is exactly the /debug/traces acceptance check.
//
// HTM aborts are tagged with their htm.AbortCause so a span shows not just
// "3 aborts" but "3 descend-validation aborts", the same signal the
// htm_aborts_total counter exports globally.
package trace

import (
	"sync/atomic"
	"time"

	"fptree/internal/htm"
	"fptree/internal/obs"
)

// Op identifies the operation a span covers.
type Op uint8

// Engine operations, then kvserver request commands. NumOps bounds arrays
// indexed by Op.
const (
	OpFind Op = iota
	OpInsert
	OpUpdate
	OpUpsert
	OpDelete
	OpScan
	OpIterSeek
	OpReqGet
	OpReqSet
	OpReqDelete
	NumOps
)

// String returns the stable lowercase name used in trace JSON and metrics.
func (o Op) String() string {
	switch o {
	case OpFind:
		return "find"
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpUpsert:
		return "upsert"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpIterSeek:
		return "iter_seek"
	case OpReqGet:
		return "req_get"
	case OpReqSet:
		return "req_set"
	case OpReqDelete:
		return "req_delete"
	default:
		return "unknown"
	}
}

// IsRequest reports whether o is a kvserver request command rather than an
// engine operation. A sampled request span wraps the engine span of the
// same call, so its store-phase flush/fence deltas repeat costs the engine
// span already attributed; aggregations that compare attributed flushes to
// the cumulative SCM counters must count only one of the two levels.
func (o Op) IsRequest() bool { return o >= OpReqGet && o < NumOps }

// Phase identifies a section inside an operation.
type Phase uint8

// Engine phases, then kvserver request phases. NumPhases bounds arrays
// indexed by Phase.
const (
	// PhaseDescend: optimistic traversal of the transient inner nodes.
	PhaseDescend Phase = iota
	// PhaseLeaf: probe/modify of the persistent leaf under its lock,
	// including the p-atomic bitmap/fingerprint commits.
	PhaseLeaf
	// PhaseSMO: structure modification — leaf split, leaf delete from the
	// linked list, inner rebuild.
	PhaseSMO
	// PhaseParse: kvserver command read + parse.
	PhaseParse
	// PhaseStore: kvserver call into the storage engine.
	PhaseStore
	// PhaseReply: kvserver response write.
	PhaseReply
	NumPhases
)

// phaseNone marks a span with no open phase.
const phaseNone Phase = 0xff

// String returns the stable lowercase name used in trace JSON and metrics.
func (p Phase) String() string {
	switch p {
	case PhaseDescend:
		return "descend"
	case PhaseLeaf:
		return "leaf"
	case PhaseSMO:
		return "smo"
	case PhaseParse:
		return "parse"
	case PhaseStore:
		return "store"
	case PhaseReply:
		return "reply"
	default:
		return "unknown"
	}
}

// CostSource supplies the cumulative flush/fence counters a span diffs at
// phase boundaries. *scm.Stats implements it; the indirection keeps trace
// from importing scm.
type CostSource interface {
	FlushFence() (flushes, fences uint64)
}

// Span is the record of one sampled operation. Callers drive it through
// Enter/Abort/Fallback and close it with Finish; every method is safe on a
// nil receiver (the "not sampled" case), so instrumentation sites never
// branch beyond the implicit nil check.
//
// A Span is owned by one goroutine until Finish publishes it; afterwards it
// is immutable and may be read concurrently from the ring.
type Span struct {
	Op        Op
	Seq       uint64    // assigned at Finish, monotonic per tracer
	Start     time.Time // wall-clock start (monotonic reading retained)
	Duration  time.Duration
	Aborts    uint32
	Fallbacks uint32
	ByCause   [htm.NumAbortCauses]uint32
	PhaseNS   [NumPhases]int64
	Flushes   [NumPhases]uint64
	Fences    [NumPhases]uint64

	tr         *Tracer
	ticket     uint64
	cur        Phase
	curStart   time.Time
	curFlushes uint64
	curFences  uint64
}

// DefaultSampleEvery samples 1 in 64 operations, the rate the acceptance
// experiment runs at.
const DefaultSampleEvery = 64

// DefaultRingSize is the default number of retained spans.
const DefaultRingSize = 512

// ringShards stripes the span ring to keep publication lock-free without a
// contended slot counter; must be a power of two.
const ringShards = 8

// Config parameterizes New.
type Config struct {
	// SampleEvery samples 1 in N operations. 1 traces every op; <=0 means
	// DefaultSampleEvery.
	SampleEvery int
	// RingSize is the total retained-span budget across shards; <=0 means
	// DefaultRingSize.
	RingSize int
	// Costs, when non-nil, enables flush/fence attribution per phase.
	Costs CostSource
	// SlowOp, when >0, logs sampled spans that run at least this long to
	// Events as human-readable "trace.slow" entries and counts them.
	SlowOp time.Duration
	// Events is the slow-span log sink; nil disables the log (the counter
	// still advances).
	Events *obs.EventRing
}

type ringShard struct {
	next atomic.Uint64
	buf  []atomic.Pointer[Span]
}

// opTotals aggregates every sampled span of one Op since tracer creation —
// the low-noise series the bench -trace report and the sum≈cumulative
// acceptance check read (ring contents alone are only the most recent spans).
type opTotals struct {
	count     atomic.Uint64
	ns        atomic.Uint64
	aborts    atomic.Uint64
	fallbacks atomic.Uint64
	phaseNS   [NumPhases]atomic.Uint64
	flushes   [NumPhases]atomic.Uint64
	fences    [NumPhases]atomic.Uint64
}

// Tracer samples operations into spans. A nil *Tracer is valid and disabled;
// all methods are nil-safe.
type Tracer struct {
	sampleEvery uint64
	costs       CostSource
	slowNS      int64
	events      *obs.EventRing

	// tickets is striped per op: interleaved op streams (every server
	// request draws a request ticket and then an engine ticket in lockstep)
	// would otherwise alias the shared modulo and starve whole op classes
	// of samples.
	tickets [NumOps]atomic.Uint64
	sampled atomic.Uint64 // spans handed out; ring-shard round-robin source
	seq     atomic.Uint64 // finished sampled spans; Span.Seq source
	slow    atomic.Uint64
	shards  [ringShards]ringShard

	totals  [NumOps]opTotals
	byCause [htm.NumAbortCauses]atomic.Uint64

	phaseHist [NumPhases]obs.Histogram
}

// New builds a Tracer from cfg.
func New(cfg Config) *Tracer {
	se := cfg.SampleEvery
	if se <= 0 {
		se = DefaultSampleEvery
	}
	rs := cfg.RingSize
	if rs <= 0 {
		rs = DefaultRingSize
	}
	per := (rs + ringShards - 1) / ringShards
	if per < 1 {
		per = 1
	}
	t := &Tracer{
		sampleEvery: uint64(se),
		costs:       cfg.Costs,
		slowNS:      cfg.SlowOp.Nanoseconds(),
		events:      cfg.Events,
	}
	for i := range t.shards {
		t.shards[i].buf = make([]atomic.Pointer[Span], per)
	}
	return t
}

// SampleEvery reports the configured sampling period (0 when the tracer is
// nil/disabled).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.sampleEvery)
}

// SlowOp reports the slow-span threshold (0 when none or the tracer is nil).
func (t *Tracer) SlowOp() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.slowNS)
}

// Start begins a span for op, or returns nil when the tracer is disabled or
// this operation lost the sampling lottery. The nil result is the common
// case and every Span method tolerates it, so call sites need no guards.
func (t *Tracer) Start(op Op) *Span {
	if t == nil {
		return nil
	}
	n := t.tickets[op].Add(1)
	if t.sampleEvery > 1 && n%t.sampleEvery != 0 {
		return nil
	}
	// The ring shard comes from a sampled-span counter, not the op ticket:
	// sampled tickets are all multiples of sampleEvery, which would alias
	// every span into the same shard whenever ringShards divides the rate.
	return &Span{tr: t, Op: op, ticket: t.sampled.Add(1), Start: time.Now(), cur: phaseNone}
}

// Enter closes the span's current phase (attributing elapsed nanoseconds and
// flush/fence deltas to it) and opens p. Nil-safe.
func (s *Span) Enter(p Phase) {
	if s == nil {
		return
	}
	now := time.Now()
	s.closePhase(now)
	s.cur = p
	s.curStart = now
	if s.tr.costs != nil {
		s.curFlushes, s.curFences = s.tr.costs.FlushFence()
	}
}

func (s *Span) closePhase(now time.Time) {
	if s.cur == phaseNone {
		return
	}
	s.PhaseNS[s.cur] += now.Sub(s.curStart).Nanoseconds()
	if s.tr.costs != nil {
		f, fe := s.tr.costs.FlushFence()
		s.Flushes[s.cur] += f - s.curFlushes
		s.Fences[s.cur] += fe - s.curFences
	}
	s.cur = phaseNone
}

// Abort records one HTM conflict abort, tagged with its cause. The retry's
// time lands in whichever phase the operation re-enters. Nil-safe.
func (s *Span) Abort(c htm.AbortCause) {
	if s == nil {
		return
	}
	if c >= htm.NumAbortCauses {
		c = htm.AbortOther
	}
	s.Aborts++
	s.ByCause[c]++
}

// Fallback records that the operation took the serialized fallback path.
// Nil-safe.
func (s *Span) Fallback() {
	if s == nil {
		return
	}
	s.Fallbacks++
}

// Finish closes the open phase, stamps the duration, folds the span into the
// tracer's cumulative totals, publishes it to the ring, and logs it when it
// crossed the slow-op threshold. The span must not be mutated afterwards.
// Nil-safe.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	now := time.Now()
	s.closePhase(now)
	s.Duration = now.Sub(s.Start)
	t := s.tr
	s.Seq = t.seq.Add(1) - 1

	tot := &t.totals[s.Op]
	tot.count.Add(1)
	tot.ns.Add(uint64(s.Duration.Nanoseconds()))
	tot.aborts.Add(uint64(s.Aborts))
	tot.fallbacks.Add(uint64(s.Fallbacks))
	for p := 0; p < int(NumPhases); p++ {
		if s.PhaseNS[p] != 0 {
			tot.phaseNS[p].Add(uint64(s.PhaseNS[p]))
			t.phaseHist[p].Observe(time.Duration(s.PhaseNS[p]))
		}
		if s.Flushes[p] != 0 {
			tot.flushes[p].Add(s.Flushes[p])
		}
		if s.Fences[p] != 0 {
			tot.fences[p].Add(s.Fences[p])
		}
	}
	for c := range s.ByCause {
		if s.ByCause[c] != 0 {
			t.byCause[c].Add(uint64(s.ByCause[c]))
		}
	}

	sh := &t.shards[s.ticket&(ringShards-1)]
	i := sh.next.Add(1) - 1
	sh.buf[i%uint64(len(sh.buf))].Store(s)

	if t.slowNS > 0 && s.Duration.Nanoseconds() >= t.slowNS {
		t.slow.Add(1)
		if t.events != nil {
			t.events.Record("trace.slow", "%s", s.slowLine())
		}
	}
}

// slowLine renders the human-readable slow-op log entry.
func (s *Span) slowLine() string {
	line := s.Op.String() + " took " + s.Duration.String()
	for p := Phase(0); p < NumPhases; p++ {
		if s.PhaseNS[p] == 0 && s.Flushes[p] == 0 {
			continue
		}
		line += " " + p.String() + "=" + time.Duration(s.PhaseNS[p]).String()
		if s.Flushes[p] > 0 || s.Fences[p] > 0 {
			line += "(" + utoa(s.Flushes[p]) + "f/" + utoa(s.Fences[p]) + "fe)"
		}
	}
	if s.Aborts > 0 {
		line += " aborts=" + utoa(uint64(s.Aborts))
		for c := range s.ByCause {
			if s.ByCause[c] > 0 {
				line += " " + htm.AbortCause(c).String() + "=" + utoa(uint64(s.ByCause[c]))
			}
		}
	}
	if s.Fallbacks > 0 {
		line += " fallbacks=" + utoa(uint64(s.Fallbacks))
	}
	return line
}

// utoa is strconv.FormatUint without pulling fmt into the hot slow path.
func utoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// Spans returns the retained spans, oldest first (by Seq), plus how many
// sampled spans were recorded in total and how many the ring has dropped.
func (t *Tracer) Spans() (spans []*Span, recorded, dropped uint64) {
	if t == nil {
		return nil, 0, 0
	}
	recorded = t.seq.Load()
	dropped = t.dropped()
	for i := range t.shards {
		sh := &t.shards[i]
		for j := range sh.buf {
			if sp := sh.buf[j].Load(); sp != nil {
				spans = append(spans, sp)
			}
		}
	}
	// Oldest first; Seq is assigned from one atomic counter at Finish.
	sortSpans(spans)
	return spans, recorded, dropped
}

// dropped counts ring evictions: per shard, publications beyond capacity.
func (t *Tracer) dropped() uint64 {
	var d uint64
	for i := range t.shards {
		sh := &t.shards[i]
		if n := sh.next.Load(); n > uint64(len(sh.buf)) {
			d += n - uint64(len(sh.buf))
		}
	}
	return d
}

func sortSpans(spans []*Span) {
	// Insertion sort: ring capacities are small (hundreds) and mostly
	// ordered already (shards fill round-robin by ticket).
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j-1].Seq > spans[j].Seq; j-- {
			spans[j-1], spans[j] = spans[j], spans[j-1]
		}
	}
}

// PhaseTotal is the cumulative cost attributed to one phase of one Op.
type PhaseTotal struct {
	Phase   Phase
	NS      uint64
	Flushes uint64
	Fences  uint64
}

// OpTotal aggregates every sampled span of one Op since tracer creation.
type OpTotal struct {
	Op        Op
	Count     uint64
	NS        uint64
	Aborts    uint64
	Fallbacks uint64
	Phases    []PhaseTotal // only phases with activity
}

// Totals snapshots the cumulative per-op aggregates, skipping ops with no
// sampled spans. Multiply by SampleEvery to estimate whole-run costs.
func (t *Tracer) Totals() []OpTotal {
	if t == nil {
		return nil
	}
	var out []OpTotal
	for op := Op(0); op < NumOps; op++ {
		tot := &t.totals[op]
		c := tot.count.Load()
		if c == 0 {
			continue
		}
		ot := OpTotal{
			Op:        op,
			Count:     c,
			NS:        tot.ns.Load(),
			Aborts:    tot.aborts.Load(),
			Fallbacks: tot.fallbacks.Load(),
		}
		for p := Phase(0); p < NumPhases; p++ {
			pt := PhaseTotal{
				Phase:   p,
				NS:      tot.phaseNS[p].Load(),
				Flushes: tot.flushes[p].Load(),
				Fences:  tot.fences[p].Load(),
			}
			if pt.NS != 0 || pt.Flushes != 0 || pt.Fences != 0 {
				ot.Phases = append(ot.Phases, pt)
			}
		}
		out = append(out, ot)
	}
	return out
}

// AbortsByCause snapshots the cumulative sampled abort counts per cause.
func (t *Tracer) AbortsByCause() [htm.NumAbortCauses]uint64 {
	var out [htm.NumAbortCauses]uint64
	if t == nil {
		return out
	}
	for c := range t.byCause {
		out[c] = t.byCause[c].Load()
	}
	return out
}

// SlowSpans reports how many sampled spans crossed the slow-op threshold.
func (t *Tracer) SlowSpans() uint64 {
	if t == nil {
		return 0
	}
	return t.slow.Load()
}

// RegisterMetrics exposes the tracer's own counters and per-phase latency
// histograms on reg under prefix (e.g. "trace"): sampled/dropped span
// counts, slow-span count, and one latency histogram per phase
// (<prefix>_phase_<name>_seconds, rendered in seconds like every histogram).
func (t *Tracer) RegisterMetrics(reg *obs.Registry, prefix string) {
	if t == nil {
		return
	}
	reg.CounterFunc(prefix+"_spans_sampled_total",
		"operations sampled into trace spans", t.seq.Load)
	reg.CounterFunc(prefix+"_spans_dropped_total",
		"sampled spans evicted from the trace ring before being read", t.dropped)
	reg.CounterFunc(prefix+"_slow_spans_total",
		"sampled spans over the slow-op threshold", t.slow.Load)
	for p := Phase(0); p < NumPhases; p++ {
		reg.RegisterHistogram(prefix+"_phase_"+p.String()+"_seconds",
			"sampled-span time attributed to the "+p.String()+" phase",
			&t.phaseHist[p])
	}
}
