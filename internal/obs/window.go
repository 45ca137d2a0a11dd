package obs

import (
	"sync"
	"time"
)

// Window turns cumulative counters into live, windowed signals: it keeps a
// ring of periodic registry snapshots and answers rate/ratio/quantile
// queries over the last N seconds instead of over process lifetime.
// Operator dashboards need "abort ratio over the last 10s", not "aborts
// since boot" — a server that aborted heavily an hour ago but is quiet now
// should read ~0.
//
// Usage: build with NewWindow, optionally TrackHistogram for windowed
// quantiles, call Tick on a fixed cadence (or let Run do it), and register
// derived gauges with ExportRate/ExportRatio/ExportP99 so the windowed
// values appear in the normal Prometheus exposition.
//
// Tick snapshots the registry WITHOUT holding the window mutex, so the
// derived gauges (which lock it briefly when scraped) can live on the same
// registry the window observes without deadlock; their values simply become
// part of subsequent snapshots, which is harmless.
type Window struct {
	reg   *Registry
	mu    sync.Mutex
	slots []windowSlot
	next  uint64 // ticks ever; slot index is next % len(slots)
	hists map[string]*Histogram
}

type windowSlot struct {
	when time.Time
	snap Snapshot
	hist map[string]HistogramSnapshot
}

// DefaultWindowSlots retains 60 intervals — a minute of history at 1s ticks.
const DefaultWindowSlots = 60

// NewWindow returns a window over reg retaining the last slots snapshots
// (DefaultWindowSlots when slots <= 0).
func NewWindow(reg *Registry, slots int) *Window {
	if slots <= 0 {
		slots = DefaultWindowSlots
	}
	return &Window{reg: reg, slots: make([]windowSlot, slots)}
}

// TrackHistogram snapshots h (full bucket state, not just count/sum) at each
// tick so quantile queries can be answered per window. Call before ticking
// starts; name is the query key (conventionally the metric name).
func (w *Window) TrackHistogram(name string, h *Histogram) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.hists == nil {
		w.hists = map[string]*Histogram{}
	}
	w.hists[name] = h
}

// Tick captures one snapshot. Call it on a fixed cadence; queries interpolate
// nothing, they diff the two retained snapshots that bracket the lookback.
func (w *Window) Tick() {
	snap := w.reg.Snapshot() // outside w.mu: reading derived gauges re-locks it
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	slot := windowSlot{when: now, snap: snap}
	if len(w.hists) > 0 {
		slot.hist = make(map[string]HistogramSnapshot, len(w.hists))
		for name, h := range w.hists {
			slot.hist[name] = h.Snapshot()
		}
	}
	w.slots[w.next%uint64(len(w.slots))] = slot
	w.next++
}

// Run ticks the window every interval until stop is closed — the goroutine
// body binaries use. Blocks; run it with go.
func (w *Window) Run(interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.Tick()
		case <-stop:
			return
		}
	}
}

// bounds returns the newest slot and the oldest retained slot no older than
// lookback before it (or the oldest retained when none is recent enough).
// ok is false until two ticks exist.
func (w *Window) bounds(lookback time.Duration) (oldest, newest windowSlot, ok bool) {
	n := uint64(len(w.slots))
	if w.next < 2 {
		return windowSlot{}, windowSlot{}, false
	}
	start := uint64(0)
	if w.next > n {
		start = w.next - n
	}
	newest = w.slots[(w.next-1)%n]
	cutoff := newest.when.Add(-lookback)
	oldest = w.slots[(w.next-2)%n] // at least one full tick of history
	for s := w.next - 2; s > start; s-- {
		slot := w.slots[(s-1)%n]
		if slot.when.Before(cutoff) {
			break
		}
		oldest = slot
	}
	return oldest, newest, oldest.when.Before(newest.when)
}

// Delta returns the change in series name over the last lookback (clamped to
// retained history); 0 until two ticks exist.
func (w *Window) Delta(name string, lookback time.Duration) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	o, nw, ok := w.bounds(lookback)
	if !ok {
		return 0
	}
	return nw.snap.Get(name) - o.snap.Get(name)
}

// Rate returns Delta(name) divided by the actual elapsed seconds between the
// bracketing snapshots — a per-second rate over the window.
func (w *Window) Rate(name string, lookback time.Duration) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	o, nw, ok := w.bounds(lookback)
	if !ok {
		return 0
	}
	secs := nw.when.Sub(o.when).Seconds()
	if secs <= 0 {
		return 0
	}
	return (nw.snap.Get(name) - o.snap.Get(name)) / secs
}

// Ratio returns delta(num)/delta(den) over the window — e.g. the windowed
// abort ratio as Ratio("htm_aborts_total", "fptree_searches_total", 10s).
// 0 when the denominator did not move.
func (w *Window) Ratio(num, den string, lookback time.Duration) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	o, nw, ok := w.bounds(lookback)
	if !ok {
		return 0
	}
	d := nw.snap.Get(den) - o.snap.Get(den)
	if d == 0 {
		return 0
	}
	return (nw.snap.Get(num) - o.snap.Get(num)) / d
}

// Quantile answers a quantile of a tracked histogram over the window, from
// the delta of its bucket snapshots. 0 until two ticks exist or when the
// histogram saw no observations in the window.
func (w *Window) Quantile(name string, q float64, lookback time.Duration) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	o, nw, ok := w.bounds(lookback)
	if !ok {
		return 0
	}
	ns, okN := nw.hist[name]
	os, okO := o.hist[name]
	if !okN || !okO {
		return 0
	}
	d := ns.Sub(os)
	if d.Count == 0 {
		return 0
	}
	return d.bucketQuantile(q)
}

// ExportRate registers gauge name on reg reading Rate(series, lookback).
func (w *Window) ExportRate(reg *Registry, name, help, series string, lookback time.Duration) {
	reg.GaugeFunc(name, help, func() float64 { return w.Rate(series, lookback) })
}

// ExportRatio registers gauge name on reg reading Ratio(num, den, lookback).
func (w *Window) ExportRatio(reg *Registry, name, help, num, den string, lookback time.Duration) {
	reg.GaugeFunc(name, help, func() float64 { return w.Ratio(num, den, lookback) })
}

// ExportP99 registers gauge name on reg reading the windowed p99 (in
// nanoseconds) of tracked histogram hist.
func (w *Window) ExportP99(reg *Registry, name, help, hist string, lookback time.Duration) {
	reg.GaugeFunc(name, help, func() float64 {
		return float64(w.Quantile(hist, 0.99, lookback).Nanoseconds())
	})
}
