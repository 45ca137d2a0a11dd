package crashtest

// Differential and crash-point coverage for the resumable range iterators.
//
// Four randomized suites (≥10k iterator sessions in total on a full run,
// scaled down 10x under -short):
//
//   - TestIteratorDifferentialFixed/Var: single-threaded sessions over random
//     windows and directions with mutations injected between steps, checked
//     against the exact sorted-map oracle (CheckIter) — the iterator must
//     behave as if it re-read the tree at every step.
//   - TestIteratorConcurrentFixed/Var: occ-tree sessions racing live mutator
//     goroutines that churn a volatile half of the key space, checked with
//     the stable-key oracle (CheckIterStable) — no stable key may ever be
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

// iterable is what the iterator suites use of a core facade.
type iterable[K, V any] interface {
	Iterator(start, end K) *core.Iter[K, V]
	ReverseIterator(start, end K) *core.Iter[K, V]
}

// iterOf opens an iterator over [start, end) on tr, a core facade.
func iterOf[K, V any](tr Tree[K, V], start, end K, reverse bool) Iter[K, V] {
	if reverse {
		return tr.(iterable[K, V]).ReverseIterator(start, end)
	}
	return tr.(iterable[K, V]).Iterator(start, end)
}

// iterKeySpace is the key-number range of the single-threaded suites.
const iterKeySpace = 240

// iterDifferential runs single-threaded iterator sessions over the windows
// window draws, in random directions, on a fresh rig of s, mutating the tree
// between steps; CheckIter holds every step to the model.
func iterDifferential[K, V any](t *testing.T, ks Keys[K, V], s rigSpec[K, V], seed int64, sessions int, window func(*rand.Rand) (lo, hi K)) {
	r := s.mk(t)
	rng := rand.New(rand.NewSource(seed))
	o := NewOracle(ks)
	mutate := func() {
		k := ks.key(rng.Uint64()%iterKeySpace + 1)
		v := ks.value(rng.Uint64(), varValLen)
		var err error
		switch _, exists := o.get(k); {
		case !exists:
			err = r.tree.Insert(k, v)
			o.put(k, v)
		case rng.Intn(2) == 0:
			_, err = r.tree.Update(k, v)
			o.put(k, v)
		default:
			_, err = r.tree.Delete(k)
			o.del(k)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		mutate()
	}
	emitted := 0
	for i := 0; i < sessions; i++ {
		lo, hi := window(rng)
		reverse := rng.Intn(2) == 1
		n, err := CheckIter(ks, iterOf(r.tree, lo, hi, reverse), o.Sorted, lo, hi, reverse, func(int) {
			if rng.Intn(3) == 0 {
				mutate()
			}
		})
		if err != nil {
			t.Fatalf("session %d [%s,%s) rev=%v: %v", i, ks.format(lo), ks.format(hi), reverse, err)
		}
		emitted += n
		mutate()
	}
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d sessions, %d keys emitted", sessions, emitted)
}

func TestIteratorDifferentialFixed(t *testing.T) {
	iterDifferential(t, Fixed, rigNamed(fixedRigs(), "fptree"), 7, scaled(3500), func(rng *rand.Rand) (lo, hi uint64) {
		lo = rng.Uint64() % (iterKeySpace + 20)
		if rng.Intn(4) > 0 {
			hi = lo + rng.Uint64()%(iterKeySpace/2) // may equal lo: empty domain
		}
		return lo, hi
	})
}

func TestIteratorDifferentialVar(t *testing.T) {
	iterDifferential(t, Var, rigNamed(varRigs(), "fptree"), 11, scaled(2000), func(rng *rand.Rand) (lo, hi []byte) {
		if rng.Intn(5) > 0 {
			lo = VarKey(rng.Uint64() % (iterKeySpace + 20))
		}
		if rng.Intn(3) > 0 {
			hi = VarKey(rng.Uint64() % (iterKeySpace + 20))
		}
		return lo, hi
	})
}

// canonVal is the canonical value number every concurrent-suite key carries,
// so any emission is verifiable without coordinating with the mutators.
func canonVal(n uint64) uint64 { return n * 0x9E3779B97F4A7C15 }

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

// concKeySpace is the key-number range of the concurrent suites.
const concKeySpace = 800

// iterConcurrent races iterator sessions on a fresh rig of s against two
// mutators churning the odd key numbers of [1, concKeySpace] while the even
// ones stay put; CheckIterStable holds every session to the stable-key
// contract. key renders key number n, num inverts it, and window draws a
// session's window.
func iterConcurrent[K, V any](t *testing.T, ks Keys[K, V], s rigSpec[K, V], seed int64, sessions int,
	key func(uint64) K, num func(K) (uint64, bool), window func(*rand.Rand) (lo, hi K)) {
	r := s.mk(t)
	tr := r.tree
	canon := func(n uint64) V { return ks.value(canonVal(n), varValLen) }
	var stable []K
	for n := uint64(2); n <= concKeySpace; n += 2 {
		stable = append(stable, key(n))
		if err := tr.Insert(key(n), canon(n)); err != nil {
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
			errs[w] = churnOdd(w, concKeySpace, &stop,
				func(n uint64) error { return tr.Insert(key(n), canon(n)) },
				func(n uint64) error { _, err := tr.Update(key(n), canon(n)); return err },
				func(n uint64) error { _, err := tr.Delete(key(n)); return err })
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
	valueOf := func(k K) V {
		n, ok := num(k)
		if !ok {
			var none V
			return none
		}
		return canon(n)
	}
	volatileOK := func(k K) bool {
		n, ok := num(k)
		return ok && n%2 == 1 && n >= 1 && n <= concKeySpace
	}
	rng := rand.New(rand.NewSource(seed))
	emitted := 0
	for i := 0; i < sessions; i++ {
		lo, hi := window(rng)
		reverse := i%2 == 1
		n, err := CheckIterStable(ks, iterOf(tr, lo, hi, reverse), stable, lo, hi, reverse, valueOf, volatileOK)
		if err != nil {
			t.Fatalf("session %d [%s,%s) rev=%v: %v", i, ks.format(lo), ks.format(hi), reverse, err)
		}
		emitted += n
	}
	stop.Store(true)
	wg.Wait()
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d sessions, %d keys emitted", sessions, emitted)
}

func TestIteratorConcurrentFixed(t *testing.T) {
	s := coreSpec("fptreec", core.Config{LeafCap: 32, InnerFanout: 16}, core.CCreate, core.COpen, fixedPair)
	iterConcurrent(t, Fixed, s, 13, scaled(2600), Fixed.key, func(k uint64) (uint64, bool) { return k, true },
		func(rng *rand.Rand) (lo, hi uint64) {
			lo = rng.Uint64() % (concKeySpace + 60)
			if rng.Intn(3) > 0 {
				hi = lo + 1 + rng.Uint64()%300
			}
			return lo, hi
		})
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
	s := coreSpec("fptreec", core.Config{LeafCap: 32, InnerFanout: 16, ValueSize: varValLen}, core.CCreateVar, core.COpenVar, varPair)
	iterConcurrent(t, Var, s, 17, scaled(2000), varKey, varKeyNum, func(rng *rand.Rand) (lo, hi []byte) {
		if rng.Intn(4) > 0 {
			lo = varKey(rng.Uint64() % (concKeySpace + 60))
		}
		if rng.Intn(3) > 0 {
			hi = varKey(rng.Uint64() % (concKeySpace + 60))
		}
		return lo, hi
	})
}

// parkedIterator is the iterator grid's hook: every attempt of a mutating op
// runs under an iterator parked two keys into the tree, so the crash lands
// under it and, after a completed op, it must drain — an abandoned or resumed
// iterator must never wedge or hold locks; after recovery, full forward and
// reverse iterations must reproduce the reconciled model exactly.
func parkedIterator[K, V any](ks Keys[K, V], r *rig[K, V]) hook[K, V] {
	var open K
	return hook[K, V]{
		run: func(op func() error) error {
			it := iterOf(r.tree, open, open, false)
			defer it.Close()
			for j := 0; j < 2 && it.Valid(); j++ {
				it.Next()
			}
			if err := op(); err != nil {
				return err
			}
			for it.Valid() {
				it.Next()
			}
			return nil
		},
		image: func(o *Oracle[K, V]) error {
			for _, reverse := range []bool{false, true} {
				if _, err := CheckIter(ks, iterOf(r.tree, open, open, reverse), o.Sorted, open, open, reverse, nil); err != nil {
					return fmt.Errorf("iteration (reverse=%v) after crash: %v", reverse, err)
				}
			}
			return nil
		},
	}
}

// iterEnumPasses is the crash grid for the iterator enumerations: clean
// persist crashes plus torn-line persist crashes (fences add little for a
// read-only observer and are covered by the op-level enumeration).
var iterEnumPasses = []pass{
	{"persist", Options{Persists: true}},
	{"torn", Options{Persists: true, Torn: true, Seed: 11}},
}

// iterCrashGrid runs s through iterEnumPasses with the parked iterator;
// ops(short) is the workload, smaller under -short.
func iterCrashGrid[K, V any](t *testing.T, ks Keys[K, V], s rigSpec[K, V], least int, ops func(short bool) []Op[K, V]) {
	for _, p := range iterEnumPasses {
		t.Run(p.name, func(t *testing.T) {
			if testing.Short() && p.opts.Torn {
				t.Skip("torn pass skipped in -short mode")
			}
			walkPass(t, ks, s, p, least, func(int) []Op[K, V] { return ops(testing.Short()) },
				func(r *rig[K, V]) hook[K, V] { return parkedIterator(ks, r) })
		})
	}
}

func TestIteratorCrashEnumerationFixed(t *testing.T) {
	iterCrashGrid(t, Fixed, rigNamed(fixedRigs(), "fptree"), 64, func(short bool) []Op[uint64, uint64] {
		if short {
			return workload(Fixed, 5, 16, 24, 20, 0)
		}
		return workload(Fixed, 5, 24, 40, 32, 0)
	})
}

func TestIteratorCrashEnumerationVar(t *testing.T) {
	iterCrashGrid(t, Var, rigNamed(varRigs(), "fptree"), 48, func(short bool) []Op[[]byte, []byte] {
		if short {
			return workload(Var, 6, 14, 20, 18, varValLen)
		}
		return workload(Var, 6, 20, 36, 28, varValLen)
	})
}
