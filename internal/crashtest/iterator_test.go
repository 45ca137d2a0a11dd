package crashtest

// Differential and crash-point coverage for the resumable range iterators.
//
// Four randomized suites (≥10k iterator sessions in total on a full run,
// scaled down 10x under -short):
//
//   - TestIteratorDifferentialFixed/Var: single-threaded sessions over random
//     windows and directions with mutations injected between steps, checked
//     against the exact sorted-map oracle (CheckIterFixed/Var) — the iterator
//     must behave as if it re-read the tree at every step.
//   - TestIteratorConcurrentFixed/Var: occ-tree sessions racing live mutator
//     goroutines that churn a volatile half of the key space, checked with
//     the stable-key oracle (CheckIterStable*) — no stable key may ever be
//     skipped or double-emitted and every value must be canonical.
//
// Plus crash-point enumeration (TestIteratorCrashEnumeration*): every persist
// of a mixed insert/update/delete workload is crashed while an iterator is
// parked mid-tree; after recovery, full forward and reverse iterations must
// reproduce the reconciled oracle exactly.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"fptree/internal/core"
)

// scaled shrinks a session count under -short so the differential suites
// stay in CI budgets while full runs keep the ≥10k-session guarantee.
func scaled(n int) int {
	if testing.Short() {
		return n / 10
	}
	return n
}

func TestIteratorDifferentialFixed(t *testing.T) {
	const keySpace = 240
	sessions := scaled(3500)
	pool := newTestPool()
	tr, err := core.Create(pool, core.Config{Variant: core.VariantFPTree, LeafCap: 8, InnerFanout: 4, GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	oracle := map[uint64]uint64{}
	var sorted []FixedKV
	dirty := true
	live := func() []FixedKV {
		if dirty {
			sorted = sorted[:0]
			for k, v := range oracle {
				sorted = append(sorted, FixedKV{k, v})
			}
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].K < sorted[j].K })
			dirty = false
		}
		return sorted
	}
	mutate := func() {
		k := rng.Uint64()%keySpace + 1
		v := rng.Uint64()
		var err error
		switch _, exists := oracle[k]; {
		case !exists:
			err = tr.Insert(k, v)
			oracle[k] = v
		case rng.Intn(2) == 0:
			_, err = tr.Update(k, v)
			oracle[k] = v
		default:
			_, err = tr.Delete(k)
			delete(oracle, k)
		}
		if err != nil {
			t.Fatal(err)
		}
		dirty = true
	}
	for i := 0; i < 300; i++ {
		mutate()
	}
	emitted := 0
	for s := 0; s < sessions; s++ {
		lo := rng.Uint64() % (keySpace + 20)
		var hi uint64
		if rng.Intn(4) > 0 {
			hi = lo + rng.Uint64()%(keySpace/2) // may equal lo: empty domain
		}
		reverse := rng.Intn(2) == 1
		var it FixedIter
		if reverse {
			it = tr.ReverseIterator(lo, hi)
		} else {
			it = tr.Iterator(lo, hi)
		}
		n, err := CheckIterFixed(it, live, lo, hi, reverse, func(step int) {
			if rng.Intn(3) == 0 {
				mutate()
			}
		})
		if err != nil {
			t.Fatalf("session %d [%d,%d) rev=%v: %v", s, lo, hi, reverse, err)
		}
		emitted += n
		mutate()
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("fixed st: %d sessions, %d keys emitted", sessions, emitted)
}

func TestIteratorDifferentialVar(t *testing.T) {
	const keySpace = 240
	sessions := scaled(2000)
	pool := newTestPool()
	cfg := core.Config{Variant: core.VariantFPTree, LeafCap: 8, InnerFanout: 4, GroupSize: 4, ValueSize: varValLen}
	tr, err := core.CreateVar(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	oracle := map[string][]byte{}
	var sorted []VarKV
	dirty := true
	live := func() []VarKV {
		if dirty {
			sorted = sorted[:0]
			for k, v := range oracle {
				sorted = append(sorted, VarKV{[]byte(k), v})
			}
			sort.Slice(sorted, func(i, j int) bool { return string(sorted[i].K) < string(sorted[j].K) })
			dirty = false
		}
		return sorted
	}
	mutate := func() {
		k := VarKey(rng.Uint64()%keySpace + 1)
		v := pack8(rng.Uint64())
		var err error
		switch _, exists := oracle[string(k)]; {
		case !exists:
			err = tr.Insert(k, v)
			oracle[string(k)] = v
		case rng.Intn(2) == 0:
			_, err = tr.Update(k, v)
			oracle[string(k)] = v
		default:
			_, err = tr.Delete(k)
			delete(oracle, string(k))
		}
		if err != nil {
			t.Fatal(err)
		}
		dirty = true
	}
	for i := 0; i < 300; i++ {
		mutate()
	}
	emitted := 0
	for s := 0; s < sessions; s++ {
		var lo, hi []byte
		if rng.Intn(5) > 0 {
			lo = VarKey(rng.Uint64() % (keySpace + 20))
		}
		if rng.Intn(3) > 0 {
			hi = VarKey(rng.Uint64() % (keySpace + 20))
		}
		reverse := rng.Intn(2) == 1
		var it VarIter
		if reverse {
			it = tr.ReverseIterator(lo, hi)
		} else {
			it = tr.Iterator(lo, hi)
		}
		n, err := CheckIterVar(it, live, lo, hi, reverse, func(step int) {
			if rng.Intn(3) == 0 {
				mutate()
			}
		})
		if err != nil {
			t.Fatalf("session %d [%q,%q) rev=%v: %v", s, lo, hi, reverse, err)
		}
		emitted += n
		mutate()
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("var st: %d sessions, %d keys emitted", sessions, emitted)
}

// canonVal is the canonical value every concurrent-suite key carries, so any
// emission is verifiable without coordinating with the mutators.
func canonVal(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 }

// churnOdd runs one mutator goroutine owning the odd keys congruent to
// 2*w+1 mod 4 within [1, keySpace]: disjoint ownership plus local
// present-tracking keeps duplicate inserts impossible, and every write is
// the canonical value so iterator emissions stay verifiable.
func churnOdd(w int, keySpace uint64, stop *atomic.Bool, ins func(uint64) error,
	upd func(uint64) error, del func(uint64) error) error {
	rng := rand.New(rand.NewSource(int64(100 + w)))
	present := map[uint64]bool{}
	for !stop.Load() {
		k := (rng.Uint64()%(keySpace/4))*4 + uint64(2*w+1)
		var err error
		switch {
		case !present[k]:
			err = ins(k)
			present[k] = true
		case rng.Intn(3) == 0:
			err = upd(k)
		default:
			err = del(k)
			delete(present, k)
		}
		if err != nil {
			return fmt.Errorf("mutator %d key %d: %v", w, k, err)
		}
		runtime.Gosched()
	}
	return nil
}

func TestIteratorConcurrentFixed(t *testing.T) {
	const keySpace = 800
	sessions := scaled(2600)
	pool := newTestPool()
	tr, err := core.CCreate(pool, core.Config{LeafCap: 32, InnerFanout: 16})
	if err != nil {
		t.Fatal(err)
	}
	var stable []uint64
	for k := uint64(2); k <= keySpace; k += 2 {
		stable = append(stable, k)
		if err := tr.Insert(k, canonVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = churnOdd(w, keySpace, &stop,
				func(k uint64) error { return tr.Insert(k, canonVal(k)) },
				func(k uint64) error { _, err := tr.Update(k, canonVal(k)); return err },
				func(k uint64) error { _, err := tr.Delete(k); return err })
		}(w)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Error(err)
			}
		}
	}()
	volatileOK := func(k uint64) bool { return k%2 == 1 && k >= 1 && k <= keySpace }
	rng := rand.New(rand.NewSource(13))
	emitted := 0
	for s := 0; s < sessions; s++ {
		lo := rng.Uint64() % (keySpace + 60)
		var hi uint64
		if rng.Intn(3) > 0 {
			hi = lo + 1 + rng.Uint64()%300
		}
		reverse := s%2 == 1
		var it FixedIter
		if reverse {
			it = tr.ReverseIterator(lo, hi)
		} else {
			it = tr.Iterator(lo, hi)
		}
		n, err := CheckIterStableFixed(it, stable, lo, hi, reverse, canonVal, volatileOK)
		if err != nil {
			t.Fatalf("session %d [%d,%d) rev=%v: %v", s, lo, hi, reverse, err)
		}
		emitted += n
	}
	stop.Store(true)
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("fixed occ: %d sessions, %d keys emitted", sessions, emitted)
}

// varKey renders a key with a fixed-width number in front so bytewise order
// matches numeric order, keeping the stable-key subsequence contiguous in
// iteration order, and — like VarKey — pads it to 4, 16, 17 or 40 bytes by
// number, so leaves under the concurrent iterators hold keys in the slot and
// keys behind pointers side by side.
func varKey(k uint64) []byte { return padVarKey([]byte(fmt.Sprintf("%04d", k)), k) }

func varKeyNum(k []byte) (uint64, bool) {
	if len(k) < 4 {
		return 0, false
	}
	n, err := strconv.ParseUint(string(k[:4]), 10, 64)
	return n, err == nil && bytes.Equal(k, varKey(n))
}

func TestIteratorConcurrentVar(t *testing.T) {
	const keySpace = 800
	sessions := scaled(2000)
	pool := newTestPool()
	tr, err := core.CCreateVar(pool, core.Config{LeafCap: 32, InnerFanout: 16, ValueSize: varValLen})
	if err != nil {
		t.Fatal(err)
	}
	valueOf := func(k []byte) []byte {
		n, ok := varKeyNum(k)
		if !ok {
			return nil
		}
		return pack8(canonVal(n))
	}
	var stable [][]byte
	for k := uint64(2); k <= keySpace; k += 2 {
		stable = append(stable, varKey(k))
		if err := tr.Insert(varKey(k), pack8(canonVal(k))); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = churnOdd(w, keySpace, &stop,
				func(k uint64) error { return tr.Insert(varKey(k), pack8(canonVal(k))) },
				func(k uint64) error { _, err := tr.Update(varKey(k), pack8(canonVal(k))); return err },
				func(k uint64) error { _, err := tr.Delete(varKey(k)); return err })
		}(w)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Error(err)
			}
		}
	}()
	volatileOK := func(k []byte) bool {
		n, ok := varKeyNum(k)
		return ok && n%2 == 1 && n >= 1 && n <= keySpace
	}
	rng := rand.New(rand.NewSource(17))
	emitted := 0
	for s := 0; s < sessions; s++ {
		var lo, hi []byte
		if rng.Intn(4) > 0 {
			lo = varKey(rng.Uint64() % (keySpace + 60))
		}
		if rng.Intn(3) > 0 {
			hi = varKey(rng.Uint64() % (keySpace + 60))
		}
		reverse := s%2 == 1
		var it VarIter
		if reverse {
			it = tr.ReverseIterator(lo, hi)
		} else {
			it = tr.Iterator(lo, hi)
		}
		n, err := CheckIterStableVar(it, stable, lo, hi, reverse, valueOf, volatileOK)
		if err != nil {
			t.Fatalf("session %d [%q,%q) rev=%v: %v", s, lo, hi, reverse, err)
		}
		emitted += n
	}
	stop.Store(true)
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("var occ: %d sessions, %d keys emitted", sessions, emitted)
}

// iterEnumPasses is the crash grid for the iterator enumerations: clean
// persist crashes plus torn-line persist crashes (fences add little for a
// read-only observer and are covered by the op-level enumeration).
var iterEnumPasses = []struct {
	name string
	opts Options
}{
	{"persist", Options{Persists: true}},
	{"torn", Options{Persists: true, Torn: true, Seed: 11}},
}

func TestIteratorCrashEnumerationFixed(t *testing.T) {
	for _, pass := range iterEnumPasses {
		t.Run(pass.name, func(t *testing.T) {
			if testing.Short() && pass.opts.Torn {
				t.Skip("torn pass skipped in -short mode")
			}
			pool := newTestPool()
			cfg := core.Config{Variant: core.VariantFPTree, LeafCap: 8, InnerFanout: 4, GroupSize: 4}
			tr, err := core.Create(pool, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ops := fixedWorkload(5, 24, 40, 32)
			if testing.Short() {
				ops = fixedWorkload(5, 16, 24, 20)
			}
			probe := probeUniverse(ops)
			oracle := map[uint64]uint64{}
			live := func() []FixedKV {
				out := make([]FixedKV, 0, len(oracle))
				for k, v := range oracle {
					out = append(out, FixedKV{k, v})
				}
				sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
				return out
			}
			total := 0
			for i := range ops {
				op := ops[i]
				if op.Kind == OpFind || op.Kind == OpScan {
					if err := ReplayFixed(tr, oracle, ops[i:i+1]); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					continue
				}
				total += Enumerate(t, pool, pass.opts,
					func() error {
						// Park an iterator two steps into the tree, crash the
						// mutating op under it, then drain: an abandoned or
						// resumed iterator must never wedge or hold locks.
						it := tr.Iterator(0, 0)
						defer it.Close()
						for j := 0; j < 2 && it.Valid(); j++ {
							it.Next()
						}
						if err := ReplayFixed(tr, oracle, ops[i:i+1]); err != nil {
							return err
						}
						for it.Valid() {
							it.Next()
						}
						return nil
					},
					func(pt Point) error {
						tr2, err := core.Open(pool)
						if err != nil {
							return fmt.Errorf("op %d (%v %d): recovery: %v", i, op.Kind, op.K, err)
						}
						tr = tr2
						if err := tr.CheckInvariants(); err != nil {
							return fmt.Errorf("op %d (%v %d): invariants: %v", i, op.Kind, op.K, err)
						}
						syncFixed(tr, oracle, op)
						if err := DiffFixed(tr, oracle, probe, nil); err != nil {
							return fmt.Errorf("op %d (%v %d): %v", i, op.Kind, op.K, err)
						}
						if _, err := CheckIterFixed(tr.Iterator(0, 0), live, 0, 0, false, nil); err != nil {
							return fmt.Errorf("op %d (%v %d): forward iteration after crash: %v", i, op.Kind, op.K, err)
						}
						if _, err := CheckIterFixed(tr.ReverseIterator(0, 0), live, 0, 0, true, nil); err != nil {
							return fmt.Errorf("op %d (%v %d): reverse iteration after crash: %v", i, op.Kind, op.K, err)
						}
						return nil
					})
			}
			if total < 64 {
				t.Fatalf("only %d crash points exercised — fail-point wiring broken?", total)
			}
			t.Logf("%s: %d crash points", pass.name, total)
		})
	}
}

func TestIteratorCrashEnumerationVar(t *testing.T) {
	for _, pass := range iterEnumPasses {
		t.Run(pass.name, func(t *testing.T) {
			if testing.Short() && pass.opts.Torn {
				t.Skip("torn pass skipped in -short mode")
			}
			pool := newTestPool()
			cfg := core.Config{Variant: core.VariantFPTree, LeafCap: 8, InnerFanout: 4, GroupSize: 4, ValueSize: varValLen}
			tr, err := core.CreateVar(pool, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ops := varWorkload(6, 20, 36, 28, varValLen)
			if testing.Short() {
				ops = varWorkload(6, 14, 20, 18, varValLen)
			}
			probe := probeUniverseVar(ops)
			oracle := map[string][]byte{}
			live := func() []VarKV {
				out := make([]VarKV, 0, len(oracle))
				for k, v := range oracle {
					out = append(out, VarKV{[]byte(k), v})
				}
				sort.Slice(out, func(i, j int) bool { return string(out[i].K) < string(out[j].K) })
				return out
			}
			total := 0
			for i := range ops {
				op := ops[i]
				if op.Kind == OpFind || op.Kind == OpScan {
					if err := ReplayVar(tr, oracle, ops[i:i+1]); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					continue
				}
				total += Enumerate(t, pool, pass.opts,
					func() error {
						it := tr.Iterator(nil, nil)
						defer it.Close()
						for j := 0; j < 2 && it.Valid(); j++ {
							it.Next()
						}
						if err := ReplayVar(tr, oracle, ops[i:i+1]); err != nil {
							return err
						}
						for it.Valid() {
							it.Next()
						}
						return nil
					},
					func(pt Point) error {
						tr2, err := core.OpenVar(pool)
						if err != nil {
							return fmt.Errorf("op %d (%v %q): recovery: %v", i, op.Kind, op.K, err)
						}
						tr = tr2
						if err := tr.CheckInvariants(); err != nil {
							return fmt.Errorf("op %d (%v %q): invariants: %v", i, op.Kind, op.K, err)
						}
						syncVar(tr, oracle, op)
						if err := DiffVar(tr, oracle, probe, nil); err != nil {
							return fmt.Errorf("op %d (%v %q): %v", i, op.Kind, op.K, err)
						}
						if _, err := CheckIterVar(tr.Iterator(nil, nil), live, nil, nil, false, nil); err != nil {
							return fmt.Errorf("op %d (%v %q): forward iteration after crash: %v", i, op.Kind, op.K, err)
						}
						if _, err := CheckIterVar(tr.ReverseIterator(nil, nil), live, nil, nil, true, nil); err != nil {
							return fmt.Errorf("op %d (%v %q): reverse iteration after crash: %v", i, op.Kind, op.K, err)
						}
						return nil
					})
			}
			if total < 48 {
				t.Fatalf("only %d crash points exercised — fail-point wiring broken?", total)
			}
			t.Logf("%s: %d crash points", pass.name, total)
		})
	}
}
