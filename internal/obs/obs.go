// Package obs is the repository's unified observability layer: a
// dependency-free named-metric registry with atomic counters, gauges and
// log-linear latency histograms, snapshot/delta semantics for phase-scoped
// measurement, Prometheus text-format exposition, an HTTP endpoint that also
// mounts expvar and net/http/pprof, and a fixed-size event ring buffer for
// post-hoc debugging of concurrency anomalies.
//
// The FPTree paper's performance argument rests on low-level cost counters —
// line flushes and memory fences per operation, fingerprint false-positive
// probes, HTM abort and fallback rates. The subsystems that already collect
// them (internal/scm, internal/htm, internal/core, internal/kvserver)
// register their counters here so every binary can export them uniformly and
// benchmarks can report per-phase deltas against the paper's cost model.
//
// Metrics are registered once at setup time and read concurrently while the
// instrumented code runs; all counter updates are atomic.
//
// A fleet of shards has one rule for its numbers, and it lives here: each
// shard registers through its own view of the registry (Registry.Shard) with
// the code that would register a lone instance, which yields one {shard="i"}
// series per shard plus the unlabeled fleet value the registry derives from
// them. No subsystem adds its shards up itself.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Kind classifies a registered metric for exposition.
type Kind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a latency histogram.
	KindHistogram
)

// metric is one registered series.
type metric struct {
	name   string
	labels string // rendered label set (`{shard="0"}`), "" for unlabeled
	help   string
	kind   Kind
	read   func() float64 // counters and gauges
	hist   *Histogram     // histograms only

	// A family aggregate is the unlabeled series the registry derives from
	// the series registered through shard views, which members lists: the
	// fleet value is their sum.
	members []*metric
}

// series is the full identity of the metric: name plus rendered labels. It
// is the Snapshot key and the sample name in the Prometheus exposition.
func (m *metric) series() string { return m.name + m.labels }

// fleet is the read function of a family aggregate.
func (m *metric) fleet() float64 {
	var v float64
	for _, s := range m.members {
		v += s.read()
	}
	return v
}

// Registry holds named metrics in registration order. Registration typically
// happens once at startup; reads (Snapshot, WritePrometheus) are safe while
// the instrumented code runs. A Registry value is the root or a shard view of
// it (Shard): both share one set of series.
type Registry struct {
	*seriesSet
	scope string // rendered shard label of a view, "" for the root
}

// seriesSet is the state a root registry and its shard views share.
type seriesSet struct {
	mu     sync.RWMutex
	order  []*metric
	byName map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seriesSet: &seriesSet{byName: map[string]*metric{}}}
}

// Shard returns the view of r that shard i of a fleet registers through: the
// code that registers X on a plain registry registers X{shard="i"} on the
// view, and the registry keeps the unlabeled X as the fleet value, the sum
// of the shard series. Reads through a view see the whole registry.
func (r *Registry) Shard(i int) *Registry {
	if r.scope != "" {
		panic("obs: shard view of a shard view")
	}
	return &Registry{seriesSet: r.seriesSet, scope: string(ShardLabel(i))}
}

// validName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func (r *Registry) register(m *metric) {
	if !validName(m.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", m.name))
	}
	if r.scope != "" && m.labels != "" {
		panic(fmt.Sprintf("obs: metric %q: labeled series under a shard view are not supported", m.name))
	}
	if (m.labels != "" || r.scope != "") && m.kind == KindHistogram {
		panic(fmt.Sprintf("obs: metric %q: labeled histograms are not supported", m.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.scope != "" {
		// The aggregate is created with the family's first shard series and
		// ahead of it, so the unlabeled sample leads the family.
		agg := r.byName[m.name]
		if agg == nil {
			agg = &metric{name: m.name, help: m.help, kind: m.kind}
			agg.read = agg.fleet
			r.add(agg)
		} else if agg.members == nil {
			panic(fmt.Sprintf("obs: metric %q registered both plainly and through a shard view", m.name))
		}
		m.labels = r.scope
		agg.members = append(agg.members, m)
	}
	r.add(m)
}

// add appends m; the caller holds r.mu.
func (r *Registry) add(m *metric) {
	key := m.series()
	if _, dup := r.byName[key]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", key))
	}
	r.byName[key] = m
	r.order = append(r.order, m)
}

// Counter creates, registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, help, c.Load)
	return c
}

// CounterFunc registers a counter whose value is read through fn — the hook
// for counters that already live in another subsystem's atomic fields.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&metric{name: name, help: help, kind: KindCounter,
		read: func() float64 { return float64(fn()) }})
}

// Gauge creates, registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.GaugeFunc(name, help, func() float64 { return float64(g.Load()) })
	return g
}

// GaugeFunc registers a gauge whose value is read through fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: KindGauge, read: fn})
}

// Histogram creates, registers and returns a new histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.RegisterHistogram(name, help, h)
	return h
}

// RegisterHistogram registers an existing histogram under name.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.register(&metric{name: name, help: help, kind: KindHistogram, hist: h})
}

// Names returns the registered metric names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	for i, m := range r.order {
		out[i] = m.series()
	}
	return out
}

// Snapshot is a point-in-time copy of every scalar series in a registry.
// Counters and gauges appear under their name; a histogram named h
// contributes h_count and h_sum_ns. Use Sub for phase-scoped deltas.
type Snapshot map[string]float64

// Snapshot captures the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := make(Snapshot, len(r.order)+len(r.order)/2)
	for _, m := range r.order {
		if m.kind == KindHistogram {
			// Count and sum only: a full Snapshot would copy every bucket.
			s[m.name+"_count"] = float64(m.hist.count.Load())
			s[m.name+"_sum_ns"] = float64(m.hist.sumNS.Load())
			continue
		}
		s[m.series()] = m.read()
	}
	return s
}

// Sub returns the per-series delta s - prev. Series missing from prev are
// treated as zero (new metrics registered mid-phase); series missing from s
// are dropped.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := make(Snapshot, len(s))
	for name, v := range s {
		d[name] = v - prev[name]
	}
	return d
}

// Get returns the value of name, or 0 when absent.
func (s Snapshot) Get(name string) float64 { return s[name] }

// PerOp divides the value of name by ops; 0 when ops is 0.
func (s Snapshot) PerOp(name string, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return s[name] / float64(ops)
}

// Ratio returns s[num] / s[den], or 0 when the denominator is 0 — e.g. the
// fingerprint false-positive rate as
// Ratio("fptree_fingerprint_false_positives_total", "fptree_fingerprint_compares_total").
func (s Snapshot) Ratio(num, den string) float64 {
	if s[den] == 0 {
		return 0
	}
	return s[num] / s[den]
}

// Keys returns the snapshot's series names, sorted.
func (s Snapshot) Keys() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
