package core

import (
	"sync/atomic"

	"fptree/internal/obs"
)

// OpStats counts the tree events behind the paper's cost arguments, with
// atomic fields so the concurrent variants can share one instance across
// goroutines and a metrics endpoint can read it during operation. The
// per-search counters are striped by the offset of the leaf searched, so
// goroutines searching different leaves do not share a counter line. It is
// the one source for the Figure 4 probe counts (read as deltas) and for the
// exported search metrics.
//
// Fingerprint accounting follows Section 4.2: every valid slot costs one
// byte-compare against the search key's fingerprint (FPCompares); a matching
// fingerprint forces a key dereference (FPHits = key probes on the
// fingerprint path); a dereference that finds a different key was a false
// positive (FPFalsePositives). With a uniform 1-byte hash the false-positive
// probability per compare is 1/256 ≈ 0.39%, which is what keeps the expected
// number of in-leaf key probes at ~1.
type OpStats struct {
	Searches         obs.StripedCounter // completed in-leaf searches
	KeyProbes        obs.StripedCounter // keys dereferenced and compared (any variant)
	FPCompares       obs.StripedCounter // fingerprint byte-compares on valid slots
	FPHits           obs.StripedCounter // fingerprint matches (forced key probes)
	FPFalsePositives obs.StripedCounter // fingerprint matched, key differed
	LeafSplits       atomic.Uint64      // completed leaf splits
	InnerRebuilds    atomic.Uint64      // DRAM inner-node reconstructions (recovery)
	RecoveryLeaves   atomic.Uint64      // leaves on the persistent leaf list scanned during recovery
	RecoveryGroups   atomic.Uint64      // leaf groups walked during recovery
	RecoveryNanos    atomic.Uint64      // wall-clock ns of the last inner rebuild
}

// noteSearch batches one search of leaf into the shared counters: one atomic
// add per non-zero counter instead of one per slot visited, on leaf's stripe.
func (o *OpStats) noteSearch(leaf, compares, hits, falsePos, probes uint64) {
	o.Searches.Add(leaf, 1)
	if probes != 0 {
		o.KeyProbes.Add(leaf, probes)
	}
	if compares != 0 {
		o.FPCompares.Add(leaf, compares)
	}
	if hits != 0 {
		o.FPHits.Add(leaf, hits)
	}
	if falsePos != 0 {
		o.FPFalsePositives.Add(leaf, falsePos)
	}
}

// FPRate returns the measured fingerprint false-positive rate: the fraction
// of fingerprint compares that matched on a differing key. Expected ≈ 1/256
// for uniform keys.
func (o *OpStats) FPRate() float64 {
	c := o.FPCompares.Load()
	if c == 0 {
		return 0
	}
	return float64(o.FPFalsePositives.Load()) / float64(c)
}

// AvgKeyProbes returns the measured expected number of in-leaf key
// dereferences per search (the paper's "number of key probes" metric).
func (o *OpStats) AvgKeyProbes() float64 {
	s := o.Searches.Load()
	if s == 0 {
		return 0
	}
	return float64(o.KeyProbes.Load()) / float64(s)
}

// RegisterMetrics exposes the counters on reg under the given prefix
// (conventionally "fptree").
func (o *OpStats) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+"_searches_total",
		"completed in-leaf searches", o.Searches.Load)
	reg.CounterFunc(prefix+"_key_probes_total",
		"keys dereferenced and compared during in-leaf searches", o.KeyProbes.Load)
	reg.CounterFunc(prefix+"_fingerprint_compares_total",
		"fingerprint byte-compares against valid slots", o.FPCompares.Load)
	reg.CounterFunc(prefix+"_fingerprint_hits_total",
		"fingerprint matches that forced a key dereference", o.FPHits.Load)
	reg.CounterFunc(prefix+"_fingerprint_false_positives_total",
		"fingerprint matches on a differing key (expected ~1/256 per compare)", o.FPFalsePositives.Load)
	reg.CounterFunc(prefix+"_leaf_splits_total",
		"completed leaf splits", o.LeafSplits.Load)
	reg.CounterFunc(prefix+"_inner_rebuilds_total",
		"DRAM inner-node reconstructions during recovery", o.InnerRebuilds.Load)
	reg.CounterFunc(prefix+"_recovery_leaves_scanned_total",
		"leaves on the persistent leaf list scanned while rebuilding inner nodes (free group leaves are not counted)", o.RecoveryLeaves.Load)
	reg.CounterFunc(prefix+"_recovery_groups_total",
		"leaf groups walked while rebuilding inner nodes", o.RecoveryGroups.Load)
	reg.GaugeFunc(prefix+"_recovery_rebuild_seconds",
		"wall-clock duration of the last inner-node rebuild", func() float64 {
			return float64(o.RecoveryNanos.Load()) / 1e9
		})
}
