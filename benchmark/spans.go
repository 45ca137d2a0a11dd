package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one request
// share req; parent is the id of the span that caused this one (0: none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the traced pass's spans in memory until the run ends. Only
// the main goroutine touches it; clients sample into their own buffers, which
// addSamples folds in after the phase. All methods are no-ops on nil, so the
// untraced run pays a nil check.
type spanLog struct {
	base  time.Time
	spans []span
}

// spanSampleEvery is the share of requests that get a span (and the engine
// tracer's sampling rate): 1 in 64.
const spanSampleEvery = 64

func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Req: -1, Start: l.now()})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l != nil && id > 0 {
		l.spans[id-1].End = l.now()
	}
}

// reqSample is a request a client timed, kept for the span file.
type reqSample struct {
	kind   opKind
	req    int64
	t0, t1 int64 // ns since the phase's base
}

func (l *spanLog) addSamples(parent int, prefix string, base time.Time, samples []reqSample) {
	if l == nil {
		return
	}
	off := int64(base.Sub(l.base))
	for _, s := range samples {
		l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: prefix + kindNames[s.kind],
			Req: s.req, Start: off + s.t0, End: off + s.t1})
	}
}

// write stores the spans, the host fingerprint and the layer self times
// (each boundary's median minus its child boundary's) as one JSON document.
func (l *spanLog) write(path string, host map[string]any, workload string, selfNS map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{"host": host, "workload": workload, "layer_self_ns": selfNS, "spans": l.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
