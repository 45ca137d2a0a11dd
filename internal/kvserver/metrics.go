package kvserver

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"fptree/internal/obs"
)

// Metrics aggregates the server's per-operation counters, byte counters,
// connection gauges and latency histograms. All fields are updated atomically
// and may be read while the server is running; the `stats` protocol command
// and Server.DumpStats render them in memcached STAT form.
type Metrics struct {
	start time.Time

	CmdGet     atomic.Uint64 // get keys processed (per key, as memcached counts)
	CmdSet     atomic.Uint64
	CmdDelete  atomic.Uint64
	CmdStats   atomic.Uint64
	CmdVersion atomic.Uint64

	GetHits      atomic.Uint64
	GetMisses    atomic.Uint64
	DeleteHits   atomic.Uint64
	DeleteMisses atomic.Uint64

	StoreErrors    atomic.Uint64 // engine-level Set/Delete failures
	ProtocolErrors atomic.Uint64 // malformed commands, bad framing, unknown verbs
	SlowOps        atomic.Uint64 // requests over Config.SlowOpThreshold

	BytesRead    atomic.Uint64
	BytesWritten atomic.Uint64

	CurrConnections     atomic.Int64
	TotalConnections    atomic.Uint64
	RejectedConnections atomic.Uint64

	GetLatency    obs.Histogram
	SetLatency    obs.Histogram
	DeleteLatency obs.Histogram
}

// counter is one row of the table both renderings of Metrics read: the STAT
// name of the `stats` command and the registry series suffix with its help.
type counter struct {
	stat, series, help string
	src                *atomic.Uint64
}

// counters lists every counter of m once (the drift test pins the struct's
// fields against it).
func (m *Metrics) counters() []counter {
	return []counter{
		{"total_connections", "connections_total", "connections accepted", &m.TotalConnections},
		{"rejected_connections", "connections_rejected_total", "connections refused at MaxConns", &m.RejectedConnections},
		{"cmd_get", "cmd_get_total", "get keys processed", &m.CmdGet},
		{"cmd_set", "cmd_set_total", "set commands processed", &m.CmdSet},
		{"cmd_delete", "cmd_delete_total", "delete commands processed", &m.CmdDelete},
		{"cmd_stats", "cmd_stats_total", "stats commands processed", &m.CmdStats},
		{"cmd_version", "cmd_version_total", "version commands processed", &m.CmdVersion},
		{"get_hits", "get_hits_total", "get keys found", &m.GetHits},
		{"get_misses", "get_misses_total", "get keys not found", &m.GetMisses},
		{"delete_hits", "delete_hits_total", "delete keys found", &m.DeleteHits},
		{"delete_misses", "delete_misses_total", "delete keys not found", &m.DeleteMisses},
		{"store_errors", "store_errors_total", "engine-level Set/Delete failures", &m.StoreErrors},
		{"protocol_errors", "protocol_errors_total", "malformed commands, bad framing, unknown verbs", &m.ProtocolErrors},
		{"slow_ops", "slow_ops_total", "requests over the slow-op threshold", &m.SlowOps},
		{"bytes_read", "bytes_read_total", "raw bytes read from clients", &m.BytesRead},
		{"bytes_written", "bytes_written_total", "raw bytes written to clients", &m.BytesWritten},
	}
}

// latency is one per-command latency histogram, by command name.
type latency struct {
	cmd string
	h   *obs.Histogram
}

func (m *Metrics) latencies() []latency {
	return []latency{{"get", &m.GetLatency}, {"set", &m.SetLatency}, {"delete", &m.DeleteLatency}}
}

// writeTo renders the metrics as "STAT <name> <value>" lines terminated by
// eol (the protocol uses "\r\n", console dumps "\n").
func (m *Metrics) writeTo(w io.Writer, eol string) {
	stat := func(k string, v interface{}) { fmt.Fprintf(w, "STAT %s %v%s", k, v, eol) }
	if !m.start.IsZero() {
		stat("uptime", int64(time.Since(m.start).Seconds()))
	}
	stat("curr_connections", m.CurrConnections.Load())
	for _, c := range m.counters() {
		stat(c.stat, c.src.Load())
	}
	for _, l := range m.latencies() {
		s := l.h.Snapshot()
		name := l.cmd + "_latency"
		stat(name+"_count", s.Count)
		stat(name+"_mean_us", microseconds(s.Mean))
		stat(name+"_p50_us", microseconds(s.P50))
		stat(name+"_p95_us", microseconds(s.P95))
		stat(name+"_p99_us", microseconds(s.P99))
		stat(name+"_max_us", microseconds(s.Max))
	}
}

func microseconds(d time.Duration) string {
	if d < 0 {
		// A negative duration can only come from a clock step between the
		// caller's two time reads; render it as zero rather than "-0.0".
		d = 0
	}
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3)
}

// RegisterMetrics exposes the server metrics on reg under the given prefix
// (conventionally "memkv"): one counter per command/outcome counter, gauges
// for the connection counts, and the three latency histograms (rendered as
// full Prometheus histograms by the /metrics endpoint).
func (m *Metrics) RegisterMetrics(reg *obs.Registry, prefix string) {
	for _, c := range m.counters() {
		reg.CounterFunc(prefix+"_"+c.series, c.help, c.src.Load)
	}
	reg.GaugeFunc(prefix+"_curr_connections", "open client connections",
		func() float64 { return float64(m.CurrConnections.Load()) })
	for _, l := range m.latencies() {
		reg.RegisterHistogram(prefix+"_"+l.cmd+"_latency_seconds", l.cmd+" command latency", l.h)
	}
}
