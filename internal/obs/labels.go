package obs

import "fmt"

// Labels is a rendered label set (`{shard="2"}`); "" is the empty set.
// Labeled series let several instances of the same logical metric coexist in
// one registry while Prometheus still sees a single metric family. The one
// label in this repository is the shard: a fleet's per-shard series come from
// Registry.Shard, which also derives the family's unlabeled value, and
// GaugeFuncL is for a per-shard series that has no such aggregate
// (memkv_shard_len).
type Labels string

// ShardLabel is the label set of shard i's series.
func ShardLabel(shard int) Labels {
	return Labels(fmt.Sprintf(`{shard="%d"}`, shard))
}

// Series returns the full series key of name with the given labels — the key
// labeled series appear under in Snapshot and the exact sample name in the
// Prometheus exposition (e.g. `htm_aborts_total{shard="0"}`). With empty
// labels it is just name.
func Series(name string, ls Labels) string {
	return name + string(ls)
}

// GaugeFuncL registers a labeled gauge whose value is read through fn. All
// series of one family (same name, different labels) share the family's
// HELP/TYPE header in the exposition; the first registration's help wins.
func (r *Registry) GaugeFuncL(name string, labels Labels, help string, fn func() float64) {
	r.register(&metric{name: name, labels: string(labels), help: help, kind: KindGauge, read: fn})
}
