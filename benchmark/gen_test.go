package main

import (
	"math"
	"testing"

	"fptree/internal/core"
)

// streamHash folds the first n ops a workload's client 0 would issue.
func streamHash(t *testing.T, name string, seed uint64, n int) uint64 {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	e := newEnv(seed, true)
	cl := w.newClient(e, w.spec(e), 0, nullTarget{})
	h := uint64(14695981039346656037)
	for i := 0; i < n; i++ {
		cl.prepare()
		kind, id, stamp := cl.current()
		for _, v := range []uint64{uint64(kind), id, uint64(stamp)} {
			h = (h ^ v) * 1099511628211
		}
		cl.exec()
		cl.commit()
	}
	return h
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a := streamHash(t, w.name, 7, 5000)
		b := streamHash(t, w.name, 7, 5000)
		c := streamHash(t, w.name, 8, 5000)
		if a != b {
			t.Errorf("%s: same seed, different stream hash %x vs %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 produced the same stream", w.name)
		}
	}
}

func TestZipfTopShare(t *testing.T) {
	const n, draws = 100000, 400000
	z := newZipf(n, 0.99)
	want := z.topShare(n / 100)
	r := rng{s: 1}
	top := 0
	for i := 0; i < draws; i++ {
		if z.rank(r.float()) < n/100 {
			top++
		}
	}
	got := float64(top) / draws
	if math.Abs(got-want) > 0.02 {
		t.Errorf("top 1%% of ranks drew %.3f of samples, analytic share %.3f", got, want)
	}
	if want < 0.5 {
		t.Errorf("θ=0.99 should put over half the mass on the top 1%%, analytic %.3f", want)
	}
}

func TestMix64Bijective(t *testing.T) {
	seen := make(map[uint64]bool, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		k := mix64(i)
		if seen[k] {
			t.Fatalf("mix64 collision at %d", i)
		}
		seen[k] = true
	}
}

// nullTarget answers nothing; the generator tests drive clients against it.
type nullTarget struct{}

func (nullTarget) get([]byte) ([]byte, bool, error)       { return nil, false, nil }
func (nullTarget) put([]byte, []byte, bool) error         { return nil }
func (nullTarget) del([]byte) (bool, error)               { return true, nil }
func (nullTarget) scanN(uint64, int) []core.KV            { return nil }
func (nullTarget) iterN(uint64, int, []core.KV) []core.KV { return nil }
