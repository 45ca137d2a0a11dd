package scm

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"fptree/internal/obs"
)

// addToCounter adds n to the Stats field v, which must be one of the two
// counter types Stats is built from; key picks the stripe of a striped one.
func addToCounter(t *testing.T, name string, v reflect.Value, key, n uint64) {
	t.Helper()
	switch c := v.Addr().Interface().(type) {
	case *obs.StripedCounter:
		c.Add(key, n)
	case *atomic.Uint64:
		c.Add(n)
	default:
		t.Fatalf("Stats.%s is %v; every Stats field must be an obs.StripedCounter or an atomic.Uint64", name, v.Type())
	}
}

// TestStatsSnapshotCoversEveryCounter guards against counter drift: any
// counter field added to Stats must also be copied by Snapshot and
// differenced by Sub. It raises each counter to a distinct value via
// reflection (a striped one spread over two stripes) and checks the snapshot
// field of the same name carries the sum, so a field forgotten in Snapshot
// (stuck at zero) or in Sub (delta equals the absolute value) fails with the
// field's name.
func TestStatsSnapshotCoversEveryCounter(t *testing.T) {
	var s Stats
	sv := reflect.ValueOf(&s).Elem()
	st := sv.Type()

	names := make([]string, 0, st.NumField())
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		names = append(names, name)
		addToCounter(t, name, sv.Field(i), uint64(i), 100)
		addToCounter(t, name, sv.Field(i), uint64(i)+1, uint64(i))
	}

	snap := s.Snapshot()
	snapV := reflect.ValueOf(snap)
	if got, want := snapV.NumField(), len(names); got != want {
		t.Fatalf("StatsSnapshot has %d fields, Stats has %d counters", got, want)
	}
	for i, name := range names {
		f := snapV.FieldByName(name)
		if !f.IsValid() {
			t.Fatalf("StatsSnapshot is missing field %s", name)
		}
		if got, want := f.Uint(), uint64(100+i); got != want {
			t.Errorf("Snapshot().%s = %d, want %d (field not copied by Snapshot)", name, got, want)
		}
	}

	// Sub must difference every field: bump each live counter by a distinct
	// amount and check the delta field-by-field.
	for i := 0; i < st.NumField(); i++ {
		addToCounter(t, names[i], sv.Field(i), uint64(2*i), uint64(1+i))
	}
	delta := s.Snapshot().Sub(snap)
	deltaV := reflect.ValueOf(delta)
	for i, name := range names {
		if got, want := deltaV.FieldByName(name).Uint(), uint64(1+i); got != want {
			t.Errorf("Sub().%s = %d, want %d (field not differenced by Sub)", name, got, want)
		}
	}
}

// TestStatsRegisterMetricsCoversEveryCounter checks the obs registration and
// the STAT names stay in sync with the Stats struct the same way: one registry
// series and one STAT name per counter, reading the live value.
func TestStatsRegisterMetricsCoversEveryCounter(t *testing.T) {
	var s Stats
	sv := reflect.ValueOf(&s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		addToCounter(t, sv.Type().Field(i).Name, sv.Field(i), uint64(i), uint64(7+i))
	}
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg, "scm")
	snap := reg.Snapshot()
	if got, want := len(reg.Names()), sv.NumField(); got != want {
		t.Fatalf("registered %d series for %d counters: %v", got, want, reg.Names())
	}
	// The STAT names of the memcached `stats` command come from the same
	// table: one per counter, each the series suffix without "_total".
	if got, want := len(StatNames()), sv.NumField(); got != want {
		t.Fatalf("%d STAT names for %d counters: %v", got, want, StatNames())
	}
	for _, name := range StatNames() {
		if _, ok := snap["scm_"+name+"_total"]; !ok {
			t.Errorf("STAT name %q has no scm_%s_total series", name, name)
		}
	}
	total := 0.0
	for _, name := range reg.Names() {
		if !strings.HasPrefix(name, "scm_") {
			t.Errorf("series %q missing prefix", name)
		}
		total += snap.Get(name)
	}
	want := 0.0
	for i := 0; i < sv.NumField(); i++ {
		want += float64(7 + i)
	}
	if total != want {
		t.Fatalf("registered series sum to %v, live counters sum to %v", total, want)
	}
}

func TestPoolRegisterMetricsGauges(t *testing.T) {
	p := NewPool(1<<20, LatencyConfig{CacheBytes: -1})
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg, "scm")
	if _, err := p.Alloc(0, 4096); err != nil {
		t.Fatal(err)
	}
	readsBefore := p.Stats().Reads.Load()
	snap := reg.Snapshot()
	if snap.Get("scm_pool_size_bytes") != float64(p.Size()) {
		t.Fatalf("pool size gauge = %v, want %v", snap.Get("scm_pool_size_bytes"), p.Size())
	}
	if snap.Get("scm_pool_allocated_bytes") < 4096 {
		t.Fatalf("allocated gauge = %v, want >= 4096", snap.Get("scm_pool_allocated_bytes"))
	}
	if got := p.Stats().Reads.Load(); got != readsBefore {
		t.Fatalf("metrics scrape performed %d SCM reads; scrapes must not perturb the counters", got-readsBefore)
	}
}

func TestReadHitsCountedOnCacheHit(t *testing.T) {
	p := NewPool(1<<20, LatencyConfig{}) // default simulated cache
	off := uint64(headerSize)
	p.ReadU64(off) // cold miss
	p.ReadU64(off) // hit
	p.ReadU64(off) // hit
	st := p.Stats().Snapshot()
	if st.ReadHits < 2 {
		t.Fatalf("ReadHits = %d after two warm reads (stats: %+v)", st.ReadHits, st)
	}
	if st.ReadMisses == 0 {
		t.Fatalf("ReadMisses = 0 after a cold read")
	}
}
