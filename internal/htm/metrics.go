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
	reg.CounterFunc(prefix+"_restarts_total",
		"full operation restarts after an abort", s.Restarts.Load)
	reg.CounterFunc(prefix+"_fallbacks_total",
		"writer entries into the global fallback lock", s.Fallbacks.Load)
	for c := AbortCause(0); c < NumAbortCauses; c++ {
		reg.CounterFunc(prefix+"_aborts_"+c.String()+"_total",
			"conflict aborts attributed to the "+c.String()+" protocol step",
			s.ByCause[c].Load)
	}
}

// RegisterMetrics exposes the adaptive controller's live state and event
// counters on reg under the given prefix (e.g. "htm"): the budget and EWMA
// gauges operators watch to see the controller react to contention, plus the
// adaptation counters. Fallback entries are counted on the tree's Stats.
func (c *AdaptiveController) RegisterMetrics(reg *obs.Registry, prefix string) {
	// Across a fleet the budget to alarm on is the most contended shard's.
	reg.MinGaugeFunc(prefix+"_adaptive_budget",
		"live optimistic retry budget (writers enter the fallback lock past it)",
		func() float64 { return float64(c.Budget()) })
	reg.GaugeFunc(prefix+"_adaptive_abort_ewma",
		"smoothed conflict-aborts-per-op ratio steering the budget",
		c.AbortEWMA)
	reg.GaugeFunc(prefix+"_fallback_held",
		"1 while a fallback writer holds the global lock",
		func() float64 { return float64(c.fbHeld.Load()) })
	reg.CounterFunc(prefix+"_adaptive_adaptations_total",
		"adaptation windows evaluated by the controller",
		c.Stats.Adaptations.Load)
	reg.CounterFunc(prefix+"_adaptive_budget_cuts_total",
		"adaptation windows that shrank the retry budget",
		c.Stats.BudgetCuts.Load)
	reg.CounterFunc(prefix+"_adaptive_budget_raises_total",
		"adaptation windows that grew the retry budget",
		c.Stats.BudgetRaises.Load)
}
