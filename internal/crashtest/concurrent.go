package crashtest

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fptree/internal/htm"
)

// ConcurrentOptions tunes a concurrent-history check.
type ConcurrentOptions struct {
	Workers      int // concurrent goroutines (default 4)
	OpsPerWorker int // operations each performs (default 2000)
	Seed         int64
	SharedKeys   int // contended read-modify-write counter slots (default 4)
}

// histMult packs a shared slot's counter as value = seq*histMult + slot, so
// any torn read mixing two slots' bytes, or a half-applied write, decodes to
// a slot mismatch.
const histMult = 1 << 20

// ConcurrentHistory drives a mixed workload against a thread-safe tree:
// each worker mutates a private key range (verified afterwards against its
// local model — any cross-worker interference or torn write breaks exact
// equality) and increments shared counter slots, taking a per-slot version
// lock for the read-modify-write. Readers run the optimistic version-lock
// protocol and fail on torn values. After the run, every slot's value must
// equal its committed increment count exactly — a lost update leaves it
// short, a doubled one leaves it long. How the tree's own retries and
// fallback entries mix is the tree's controller's business (SetController).
// It returns the number of committed shared increments, so a caller can tell
// the contended part of the workload ran.
func ConcurrentHistory(tb testing.TB, t Fixed, opts ConcurrentOptions) (increments uint64) {
	tb.Helper()
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.OpsPerWorker <= 0 {
		opts.OpsPerWorker = 2000
	}
	if opts.SharedKeys <= 0 {
		opts.SharedKeys = 4
	}
	locks := make([]htm.VersionLock, opts.SharedKeys)
	started := make([]atomic.Uint64, opts.SharedKeys)
	committed := make([]atomic.Uint64, opts.SharedKeys)

	sharedKey := func(slot int) uint64 { return uint64(slot) + 1 }
	privKey := func(w, i int) uint64 { return uint64(w+1)<<32 | uint64(i) }

	for slot := 0; slot < opts.SharedKeys; slot++ {
		if err := t.Insert(sharedKey(slot), uint64(slot)); err != nil {
			tb.Fatalf("concurrent(seed=%d): seed slot %d: %v", opts.Seed, slot, err)
		}
	}

	increment := func(slot int) error {
		k := sharedKey(slot)
		started[slot].Add(1)
		lk := &locks[slot]
		lk.Lock()
		v, ok := t.Find(k)
		if !ok {
			lk.UnlockNoBump()
			return fmt.Errorf("shared slot %d vanished", slot)
		}
		if v%histMult != uint64(slot) {
			lk.UnlockNoBump()
			return fmt.Errorf("torn RMW read on slot %d: value %#x", slot, v)
		}
		if _, err := t.Update(k, v+histMult); err != nil {
			lk.UnlockNoBump()
			return fmt.Errorf("slot %d update: %v", slot, err)
		}
		lk.Unlock()
		committed[slot].Add(1)
		return nil
	}

	readShared := func(slot int) error {
		k := sharedKey(slot)
		for {
			ver := locks[slot].ReadBegin()
			v, ok := t.Find(k)
			if !locks[slot].ReadValidate(ver) {
				continue // overlapped a writer; retry, as a real reader would
			}
			if !ok {
				return fmt.Errorf("shared slot %d missing", slot)
			}
			if v%histMult != uint64(slot) {
				return fmt.Errorf("torn read on slot %d: value %#x", slot, v)
			}
			if seq := v / histMult; seq > started[slot].Load() {
				return fmt.Errorf("slot %d counter %d exceeds %d started increments", slot, seq, started[slot].Load())
			}
			return nil
		}
	}

	models := make([]map[uint64]uint64, opts.Workers)
	errs := make(chan error, opts.Workers)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		models[w] = map[uint64]uint64{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed ^ int64(w+1)*0x9E3779B9))
			model := models[w]
			for i := 0; i < opts.OpsPerWorker; i++ {
				switch rng.Intn(8) {
				case 0, 1: // shared increment
					if err := increment(rng.Intn(opts.SharedKeys)); err != nil {
						errs <- fmt.Errorf("worker %d op %d: %v", w, i, err)
						return
					}
				case 2: // shared optimistic read
					if err := readShared(rng.Intn(opts.SharedKeys)); err != nil {
						errs <- fmt.Errorf("worker %d op %d: %v", w, i, err)
						return
					}
				default: // private-range mutation or lookup
					k := privKey(w, rng.Intn(200))
					switch want, exists := model[k]; {
					case rng.Intn(4) == 0 && exists:
						if _, err := t.Delete(k); err != nil {
							errs <- fmt.Errorf("worker %d op %d: delete(%#x): %v", w, i, k, err)
							return
						}
						delete(model, k)
					case rng.Intn(3) == 0:
						v, ok := t.Find(k)
						if ok != exists || (ok && v != want) {
							errs <- fmt.Errorf("worker %d op %d: find(%#x) = %d,%v want %d,%v", w, i, k, v, ok, want, exists)
							return
						}
					case exists:
						v := rng.Uint64()
						if _, err := t.Update(k, v); err != nil {
							errs <- fmt.Errorf("worker %d op %d: update(%#x): %v", w, i, k, err)
							return
						}
						model[k] = v
					default:
						v := rng.Uint64()
						if err := t.Insert(k, v); err != nil {
							errs <- fmt.Errorf("worker %d op %d: insert(%#x): %v", w, i, k, err)
							return
						}
						model[k] = v
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		tb.Fatalf("concurrent(seed=%d): %v", opts.Seed, err)
	}

	for slot := 0; slot < opts.SharedKeys; slot++ {
		n := committed[slot].Load()
		increments += n
		want := n*histMult + uint64(slot)
		if v, ok := t.Find(sharedKey(slot)); !ok || v != want {
			tb.Fatalf("concurrent(seed=%d): slot %d final value %#x,%v want %#x (%d committed increments — lost or doubled update)",
				opts.Seed, slot, v, ok, want, n)
		}
	}
	for w := range models {
		for k, want := range models[w] {
			if v, ok := t.Find(k); !ok || v != want {
				tb.Fatalf("concurrent(seed=%d): worker %d key %#x = %d,%v want %d", opts.Seed, w, k, v, ok, want)
			}
		}
	}
	return increments
}
