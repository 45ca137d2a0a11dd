package scm

import (
	"testing"
	"time"
)

// TestChargeNeverShort pins that charging once per primitive still charges
// every line: a cold 4-line read pays four read latencies and a Persist of
// three dirty lines three write latencies, in LatencySpin as wall time and in
// LatencySleep as debt. The spin bounds are lower bounds only (a slow host
// can only make the waits longer), so they catch a charge that drops the
// line count without ever flaking.
func TestChargeNeverShort(t *testing.T) {
	const lat = 20 * time.Microsecond
	off := uint64(64 << 10) // line-aligned, past the header the pool touches
	p := NewPool(1<<20, LatencyConfig{Mode: LatencySpin, ReadLatency: lat, WriteLatency: lat})

	m0 := p.Stats().ReadMisses.Load()
	buf := make([]byte, 4*LineSize)
	start := time.Now()
	p.ReadInto(off, buf)
	if d := time.Since(start); d < 4*lat {
		t.Errorf("cold 4-line ReadInto took %v, want >= %v", d, 4*lat)
	}
	if m := p.Stats().ReadMisses.Load() - m0; m != 4 {
		t.Errorf("cold 4-line ReadInto counted %d misses, want 4", m)
	}

	p.WriteBytes(off, buf[:3*LineSize]) // cached by the read: dirties 3 lines, no miss
	f0 := p.Stats().Flushes.Load()
	start = time.Now()
	p.Persist(off, 3*LineSize)
	if d := time.Since(start); d < 3*lat {
		t.Errorf("Persist of 3 dirty lines took %v, want >= %v", d, 3*lat)
	}
	if f := p.Stats().Flushes.Load() - f0; f != 3 {
		t.Errorf("Persist of 3 dirty lines counted %d flushes, want 3", f)
	}

	// LatencySleep owes the same total: 4 read and 3 write latencies, all
	// below latencyBatch, so none of it is slept yet.
	s := NewPool(1<<20, LatencyConfig{Mode: LatencySleep, ReadLatency: lat, WriteLatency: lat})
	s.latDebt.Store(0) // what formatting the header owed
	s.ReadInto(off, buf)
	s.WriteBytes(off, buf[:3*LineSize])
	s.Persist(off, 3*LineSize)
	if got, want := time.Duration(s.latDebt.Load()), 7*lat; got != want {
		t.Errorf("LatencySleep debt after 4 misses and 3 flushes = %v, want %v", got, want)
	}
}

// BenchmarkSpin measures what a charge really costs in LatencySpin mode. The
// 90ns, 300ns and 650ns rows spin for one line at the ends and the middle of
// the Fig. 7 sweep (300 ns is the medium the repository benchmark
// configures): ns/op is the wall time of one charge, and x-configured is that
// time over the configured latency. The "6 lines, one charge" row is a
// primitive that misses or flushes six 300 ns lines, charged as one spin the
// way Pool.charge does. spin polls the monotonic clock until its deadline has
// passed, so a charge overshoots by up to one clock read plus the loop around
// it; the since row is that clock read.
//
//	go test -run '^$' -bench Spin ./internal/scm
func BenchmarkSpin(b *testing.B) {
	for _, d := range []time.Duration{90, 300, 650} {
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spin(d)
			}
			b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(d), "x-configured")
		})
	}
	b.Run("6 lines, one charge", func(b *testing.B) {
		const lat = 300 * time.Nanosecond
		p := NewPool(1<<16, LatencyConfig{Mode: LatencySpin, ReadLatency: lat, WriteLatency: lat})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.charge(6, lat)
		}
		b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(6*lat), "x-configured")
	})
	b.Run("since", func(b *testing.B) {
		var d time.Duration
		for i := 0; i < b.N; i++ {
			d = time.Since(epoch)
		}
		_ = d
	})
}
