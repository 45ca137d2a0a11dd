package scm

import (
	"testing"
	"time"
)

// BenchmarkSpin measures what one charged line really costs in LatencySpin
// mode. The 300ns row spins for the medium latency the repository benchmark
// configures: its ns/op is the wall time of one charge, and x-configured is
// that time over 300 ns. spin polls the clock until the latency has passed,
// so a charge overshoots by up to one clock read plus the loop around it; the
// now row is that clock read.
//
//	go test -run '^$' -bench Spin ./internal/scm
func BenchmarkSpin(b *testing.B) {
	const d = 300 * time.Nanosecond
	b.Run("300ns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spin(d)
		}
		b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(d), "x-configured")
	})
	b.Run("now", func(b *testing.B) {
		var t time.Time
		for i := 0; i < b.N; i++ {
			t = time.Now()
		}
		_ = t
	})
}
