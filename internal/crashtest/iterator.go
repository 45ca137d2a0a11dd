package crashtest

// Iterator checkers: the differential layer for the resumable range
// iterators of the core trees. Two strengths are offered, matching the two
// guarantees the iterators make.
//
// CheckIter verifies the EXACT single-threaded contract: with no concurrent
// writers (mutations happen only between steps, through the mutate
// callback), every step must return precisely the first live in-window key
// past the cursor — the iterator behaves as if it re-read the tree at each
// step. This is also the contract a concurrent tree's iterator honors when
// driven from one goroutine.
//
// CheckIterStable verifies the concurrent contract under live mutators: with
// the key space split into stable keys (never touched during the session)
// and volatile keys (churned concurrently, but always carrying their
// canonical value when present), the emission must be strictly monotonic
// inside the window, every stable in-window key must appear exactly once,
// every emitted key must carry its canonical value, and every volatile
// emission must be a plausible key. Skipping or double-emitting a stable key
// — the linearizability-per-step property the iterator claims — is reported
// with the offending step.
//
// Like the rest of this package's exported surface, only scm/htm/stdlib are
// imported, so tree packages' own tests can use these checkers too.

import (
	"fmt"
	"slices"
	"sort"
)

// Iter is the iterator surface the checkers drive; core.Iter[K, V] satisfies
// it. The checkers hold on to emitted keys, so a key Key returned must not
// change under a later Next.
type Iter[K, V any] interface {
	Valid() bool
	Next() bool
	Key() K
	Value() V
	Close()
}

// inWindow reports whether k lies in [start, end).
func (ks Keys[K, V]) inWindow(k, start, end K) bool {
	var open K
	return ks.compare(k, start) >= 0 && (ks.compare(end, open) == 0 || ks.compare(k, end) < 0)
}

// CheckIter drives it to exhaustion against the exact oracle. live must
// return the CURRENT live pairs sorted ascending by key; mutate (optional)
// runs after each emission and may mutate both the tree and whatever backs
// live. start/end bound the window; reverse selects descending iteration.
// Returns the number of keys emitted.
func CheckIter[K, V any](ks Keys[K, V], it Iter[K, V], live func() []KV[K, V], start, end K, reverse bool, mutate func(step int)) (int, error) {
	defer it.Close()
	f := ks.format
	var cur K
	curSet := false
	for steps := 0; ; steps++ {
		want, ok := ks.nextExpected(live(), start, end, reverse, cur, curSet)
		if !it.Valid() {
			if ok {
				return steps, fmt.Errorf("step %d: iterator exhausted but key %s is live in the window", steps, f(want.K))
			}
			if it.Next() {
				return steps, fmt.Errorf("step %d: Next on exhausted iterator returned true", steps)
			}
			return steps, nil
		}
		if !ok {
			return steps, fmt.Errorf("step %d: emitted %s but no live key remains past cursor", steps, f(it.Key()))
		}
		if ks.compare(it.Key(), want.K) != 0 {
			return steps, fmt.Errorf("step %d: emitted key %s, oracle expects %s", steps, f(it.Key()), f(want.K))
		}
		if !ks.equal(it.Value(), want.V) {
			return steps, fmt.Errorf("step %d: key %s carries value %x, oracle has %x", steps, f(want.K), any(it.Value()), any(want.V))
		}
		cur, curSet = want.K, true
		if mutate != nil {
			mutate(steps + 1)
		}
		it.Next()
	}
}

// nextExpected returns the pair the iterator must emit next: the least (or,
// reversed, greatest) in-window key strictly past the cursor. sorted is
// ascending.
func (ks Keys[K, V]) nextExpected(sorted []KV[K, V], start, end K, reverse bool, cur K, curSet bool) (KV[K, V], bool) {
	var i int
	if !reverse {
		i = sort.Search(len(sorted), func(i int) bool {
			k := sorted[i].K
			return ks.compare(k, start) >= 0 && (!curSet || ks.compare(k, cur) > 0)
		})
	} else {
		// Greatest key below the cursor (or below end / at the top when unset).
		var open K
		i = sort.Search(len(sorted), func(i int) bool {
			if curSet {
				return ks.compare(sorted[i].K, cur) >= 0
			}
			return ks.compare(end, open) != 0 && ks.compare(sorted[i].K, end) >= 0
		}) - 1
	}
	if i < 0 || i == len(sorted) || !ks.inWindow(sorted[i].K, start, end) {
		return KV[K, V]{}, false
	}
	return sorted[i], true
}

// CheckIterStable drives it to exhaustion under concurrent mutators. stable
// is the ascending list of keys guaranteed live for the whole session;
// valueOf gives every key's canonical value (mutators must only ever write
// canonical values); volatileOK reports whether a non-stable key is one the
// mutators could legitimately have inserted. Verifies strict in-window
// monotonic emission, exact once-each coverage of the stable keys, and
// canonical values throughout. Returns the number of keys emitted.
func CheckIterStable[K, V any](ks Keys[K, V], it Iter[K, V], stable []K, start, end K, reverse bool, valueOf func(K) V, volatileOK func(K) bool) (int, error) {
	defer it.Close()
	f := ks.format
	var want []K // the in-window stable keys in emission order
	for _, k := range stable {
		if ks.inWindow(k, start, end) {
			want = append(want, k)
		}
	}
	if reverse {
		slices.Reverse(want)
	}
	idx, steps := 0, 0
	var prev K
	for ; it.Valid(); it.Next() {
		k := it.Key()
		if !ks.inWindow(k, start, end) {
			return steps, fmt.Errorf("step %d: key %s outside window [%s,%s)", steps, f(k), f(start), f(end))
		}
		if c := ks.compare(k, prev); steps > 0 && (!reverse && c <= 0 || reverse && c >= 0) {
			return steps, fmt.Errorf("step %d: key %s after %s — duplicate or regression", steps, f(k), f(prev))
		}
		prev = k
		if !ks.equal(it.Value(), valueOf(k)) {
			return steps, fmt.Errorf("step %d: key %s carries value %x, canonical is %x", steps, f(k), any(it.Value()), any(valueOf(k)))
		}
		switch _, isStable := slices.BinarySearchFunc(stable, k, ks.compare); {
		case idx < len(want) && ks.compare(k, want[idx]) == 0:
			idx++
		case isStable && idx < len(want):
			return steps, fmt.Errorf("step %d: stable key %s emitted while %s was still pending — a stable key was skipped", steps, f(k), f(want[idx]))
		case isStable:
			return steps, fmt.Errorf("step %d: stable key %s emitted twice", steps, f(k))
		case !volatileOK(k):
			return steps, fmt.Errorf("step %d: key %s is neither stable nor a legal volatile key", steps, f(k))
		}
		steps++
	}
	if idx != len(want) {
		return steps, fmt.Errorf("iterator exhausted with stable key %s (and %d more) never emitted", f(want[idx]), len(want)-idx-1)
	}
	return steps, nil
}
