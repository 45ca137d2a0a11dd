package htm

import "fptree/internal/obs"

// RegisterMetrics exposes the emulated-HTM event counters on reg under the
// given prefix (e.g. "htm"): conflict aborts, operation restarts, and
// fallback-lock acquisitions — the numbers behind the paper's observation
// that Selective Concurrency keeps TSX abort rates low by moving SCM writes
// out of transactions.
func (s *Stats) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+"_aborts_total",
		"optimistic validation failures (TSX conflict-abort analogue)", s.Aborts.Load)
	// Every abort restarts its operation, so the two counts are one.
	reg.CounterFunc(prefix+"_restarts_total",
		"full operation restarts after an abort", s.Aborts.Load)
	reg.CounterFunc(prefix+"_fallbacks_total",
		"writer entries into the global fallback lock", s.Fallbacks.Load)
	for c := AbortCause(0); c < NumAbortCauses; c++ {
		reg.CounterFunc(prefix+"_aborts_"+c.String()+"_total",
			"conflict aborts attributed to the "+c.String()+" protocol step",
			s.ByCause[c].Load)
	}
}

// RegisterMetrics exposes the fallback lock's state on reg under the given
// prefix (e.g. "htm"). Fallback entries are counted on the tree's Stats.
func (c *AdaptiveController) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+"_fallback_held",
		"1 while a fallback writer holds the global lock",
		func() float64 { return float64(c.fbHeld.Load()) })
}
