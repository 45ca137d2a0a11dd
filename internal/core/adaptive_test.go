package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fptree/internal/htm"
	"fptree/internal/obs"
	"fptree/internal/obs/trace"
	"fptree/internal/scm"
)

// TestAdaptiveControllerAttach: every concurrent tree is born with a
// controller at the default budget, SetController (promoted by Index)
// replaces it, and single-threaded trees have none and ignore one.
func TestAdaptiveControllerAttach(t *testing.T) {
	ct := newCTree(t, Config{LeafCap: 8, InnerFanout: 4})
	own := ct.Controller()
	if own == nil {
		t.Fatal("concurrent tree was created without a controller")
	}
	if b := own.Budget(); b != htm.DefaultMaxRetries {
		t.Fatalf("default controller budget = %d, want %d", b, htm.DefaultMaxRetries)
	}
	c := htm.NewAdaptiveController(htm.AdaptiveConfig{})
	ct.SetController(c)
	if ct.Controller() != c {
		t.Fatal("SetController did not replace the tree's own controller")
	}
	ct.SetController(nil)
	if ct.Controller() != c {
		t.Fatal("SetController(nil) left a concurrent tree without a controller")
	}
	re, err := COpen(ct.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if re.Controller() == nil {
		t.Fatal("recovered concurrent tree has no controller")
	}
	st, err := Create(newPool(16), Config{LeafCap: 8, InnerFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	st.SetController(c)
	if st.Controller() != nil {
		t.Fatal("single-threaded tree accepted a controller")
	}
}

// TestDefaultTreeFallsBackUnderContention: a fallback entry is visible where
// operators look — htm_fallbacks_total (the one fallback counter), the
// htm_fallback_held gauge, and the span of the operation that took the lock.
// A budget of one makes writers hammering one hot leaf enter the fallback
// lock within a few hundred updates; a few µs of emulated flush latency hold
// the leaf lock long enough to conflict, as in the contention sweep.
func TestDefaultTreeFallsBackUnderContention(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("writers that run one at a time never conflict")
	}
	pool := scm.NewPool(16<<20, scm.LatencyConfig{Mode: scm.LatencySpin, WriteLatency: 5 * time.Microsecond})
	tr, err := CCreateVar(pool, Config{LeafCap: 8, InnerFanout: 4, ValueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	tr.SetController(htm.NewAdaptiveController(htm.AdaptiveConfig{Budget: 1}))
	tracer := trace.New(trace.Config{SampleEvery: 1})
	tr.SetTracer(tracer)
	reg := obs.NewRegistry()
	tr.RegisterMetrics(reg)
	for i := 0; i < 8; i++ {
		if err := tr.Insert(strKey(i), val8(0)); err != nil {
			t.Fatal(err)
		}
	}

	// Each writer stops at the first fallback entry anyone makes, so the
	// spans that made one are still among the tracer's most recent.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(1); tr.Stats.Fallbacks.Load() == 0; i++ {
				if _, err := tr.Update(strKey(w%2), val8(i)); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	snap := reg.Snapshot()
	if held, ok := snap["htm_fallback_held"]; !ok || held != 0 {
		t.Fatalf("htm_fallback_held = %v (exported %v), want 0 with every writer done", held, ok)
	}
	var traced uint32
	spans, _, _ := tracer.Spans()
	for _, sp := range spans {
		traced += sp.Fallbacks
	}
	if traced == 0 || float64(traced) != snap["htm_fallbacks_total"] {
		t.Fatalf("the last %d spans report %d fallbacks, htm_fallbacks_total = %v with every op sampled",
			len(spans), traced, snap["htm_fallbacks_total"])
	}
}

// TestWaiterDiesWithCrashedLockHolder pins the crash check in the engine's
// blocking waits: a goroutine waiting on a lock whose holder died at an
// injected crash (and so never releases it) must end with the crash, not spin
// on. AlwaysFallback makes every writer a blocking one; since every concurrent
// tree has a controller, any tree's writers can become one. Readers never
// take the fallback lock, but every loser of a leaf-lock race waits for the
// holder.
func TestWaiterDiesWithCrashedLockHolder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		keys   int          // keys present before the crash
		victim func(*CTree) // dies holding a lock, at its first flush
		waiter func(*CTree) // then needs that lock
	}{
		// The victim dies inside its leaf critical section; the waiter is a
		// fallback writer, which blocks on the leaf lock instead of aborting.
		{"fallback-writer-on-leaf-lock", 8,
			func(tr *CTree) { _, _ = tr.Update(3, 1) },
			func(tr *CTree) { _, _ = tr.Update(3, 2) }},
		// A reader that lost the race for the leaf waits for its holder to
		// leave. (A Find would die in the abort's own crash check before it
		// got there, so the waiter enters the wait directly.)
		{"reader-on-leaf-lock", 8,
			func(tr *CTree) { _, _ = tr.Update(3, 1) },
			func(tr *CTree) { tr.waitLeaf(tr.findLeafRef(3), nil) }},
		// firstLeaf holds the anchor and the root lock across its Alloc; a
		// descent waits in readBegin on the anchor, a second firstLeaf in
		// lockNode on it.
		{"descent-on-anchor", 0,
			func(tr *CTree) { _ = tr.Insert(1, 1) },
			func(tr *CTree) { tr.Find(1) }},
		{"first-leaf-on-anchor", 0,
			func(tr *CTree) { _ = tr.Insert(1, 1) },
			func(tr *CTree) { _ = tr.firstLeaf(tr.root.Load()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newCTree(t, Config{LeafCap: 8, InnerFanout: 4})
			tr.SetController(htm.NewAdaptiveController(htm.AdaptiveConfig{AlwaysFallback: true}))
			for k := 1; k <= tc.keys; k++ {
				if err := tr.Insert(uint64(k), 0); err != nil {
					t.Fatal(err)
				}
			}
			crashOf := func(op func(*CTree)) (r any) {
				defer func() { r = recover() }()
				op(tr)
				return nil
			}
			tr.Pool().FailAfterFlushes(1)
			if r := crashOf(tc.victim); r != scm.ErrInjectedCrash {
				t.Fatalf("victim ended with %v, want the injected crash", r)
			}
			done := make(chan any, 1)
			go func() { done <- crashOf(tc.waiter) }()
			select {
			case r := <-done:
				if r != scm.ErrInjectedCrash {
					t.Fatalf("waiter ended with %v, want scm.ErrInjectedCrash", r)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("waiter is still spinning on a lock whose holder died in the crash")
			}
		})
	}
}

// TestLeafLoserWaitsForHolder: a reader or a writer that finds its leaf
// write-locked waits for the holder, turn by turn, not for a timer. The
// holder keeps the leaf until the waiter has made many waitLeaf turns, and
// the operation must not return before the release; once the leaf is
// released, the waiter's next turn sees it and the operation returns without
// another. Nothing here reads a clock, so a loaded host slows the test down
// but cannot fail it.
func TestLeafLoserWaitsForHolder(t *testing.T) {
	tr := newCTree(t, Config{LeafCap: 8, InnerFanout: 4})
	for k := uint64(1); k <= 64; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	var turns atomic.Int64
	tr.onWaitTurn = func() { turns.Add(1) }
	const key, trials, held = 30, 5, 1000
	for _, op := range []struct {
		name string
		run  func()
	}{
		{"find", func() { tr.Find(key) }},
		{"update", func() { _, _ = tr.Update(key, 1) }},
	} {
		for i := 0; i < trials; i++ {
			ref := tr.findLeafRef(key) // an update may have split the leaf
			tr.cc.lockLeaf(ref)
			turns.Store(0)
			var done atomic.Bool
			go func() {
				op.run()
				done.Store(true)
			}()
			for turns.Load() < held {
				if done.Load() {
					t.Fatalf("%s returned while the holder kept its leaf", op.name)
				}
				runtime.Gosched()
			}
			tr.cc.unlockLeaf(ref)
			released := turns.Load()
			for !done.Load() {
				runtime.Gosched()
			}
			// A turn that began after the release sees it; one that began
			// before may have read the lock still held.
			if after := turns.Load() - released; after > 1 {
				t.Errorf("%s waited %d more turns after the holder released its leaf, want at most 1", op.name, after)
			}
		}
	}
}

// TestReaderConcurrentWithFallbackWriter is the race-enabled linearizability
// check for Brown's refinement, where fast and fallback paths coexist. Under
// AlwaysFallback every write goes through the global fallback lock; under a
// budget of one a writer's second retry does, and the test makes every
// writer's first update lose its budget (forceFallbacks), so optimistic
// writers, fallback writers and readers interleave on the same leaves on any
// number of CPUs. Either way optimistic readers must keep completing (they
// validate leaf versions against the writer's publication point instead of
// stalling on the lock) and every key must read as a register that never
// goes back: a writer's values for a key only grow, and each update commits
// its leaf-version bump before the leaf lock is released, so no reader can
// see a writer's older value after its newer one.
func TestReaderConcurrentWithFallbackWriter(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     htm.AdaptiveConfig
		writers int
	}{
		{"always-fallback", htm.AdaptiveConfig{AlwaysFallback: true}, 1},
		{"budget-one", htm.AdaptiveConfig{Budget: 1}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) { readersBesideFallbackWriters(t, tc.cfg, tc.writers) })
	}
}

func readersBesideFallbackWriters(t *testing.T, cfg htm.AdaptiveConfig, writers int) {
	ct := newCTree(t, Config{LeafCap: 8, InnerFanout: 4})
	ct.SetController(htm.NewAdaptiveController(cfg))

	// Every writer and reader works on the same few keys of one leaf, amid
	// enough neighbours that reads traverse real inner nodes. A value is
	// seq*writers + writer, so a reader can tell whose write it saw.
	hot := []uint64{500, 501, 502}
	for i := uint64(1); i <= 1000; i++ {
		if err := ct.Insert(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	// A little flush latency holds each leaf lock long enough for writers
	// to contend past their first, forced fallback entry.
	ct.Pool().SetLatency(scm.LatencySpin, 0, 2*time.Microsecond)
	var release func()
	if !cfg.AlwaysFallback {
		release = forceFallbacks(t, ct, hot[1], writers)
	}

	// The writers keep going until every reader has banked readsEach
	// overlapping reads, at least minWrites updates were made and, where the
	// budget decides, at least one of them took the fallback lock — so the
	// test cannot pass without genuine reader progress beside active
	// fallback writers, and cannot flake on a scheduler that briefly starves
	// someone, as fixed counts can on one CPU.
	const minWrites = 2000
	const readers = 4
	const readsEach = 50
	var written atomic.Uint64
	var stop atomic.Bool
	var readersDone atomic.Int32
	var rg, wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			defer readersDone.Add(1)
			last := make([][]uint64, len(hot)) // [key][writer] -> highest seq seen
			for i := range last {
				last[i] = make([]uint64, writers)
			}
			for reads := 0; reads < readsEach; {
				if written.Load() == 0 {
					// Only count reads that overlap the writers.
					runtime.Gosched()
					continue
				}
				k := (r + reads) % len(hot)
				v, ok := ct.Find(hot[k])
				if !ok {
					t.Error("hot key vanished")
					return
				}
				w, seq := v%uint64(writers), v/uint64(writers)
				if seq < last[k][w] {
					t.Errorf("key %d went back: writer %d's seq %d after its %d", hot[k], w, seq, last[k][w])
					return
				}
				last[k][w] = seq
				reads++
			}
		}(r)
	}
	finals := make([][]uint64, writers) // [writer][key] -> last value written
	for w := 0; w < writers; w++ {
		finals[w] = make([]uint64, len(hot))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := uint64(1); !stop.Load(); seq++ {
				k := int(seq) % len(hot)
				v := seq*uint64(writers) + uint64(w)
				if ok, err := ct.Update(hot[k], v); err != nil || !ok {
					t.Errorf("writer %d update %d: ok=%v err=%v", w, seq, ok, err)
					return
				}
				finals[w][k] = v
				written.Add(1)
			}
		}(w)
	}
	if release != nil {
		release()
	}
	deadline := time.Now().Add(60 * time.Second)
	for written.Load() < minWrites || int(readersDone.Load()) < readers || ct.Stats.Fallbacks.Load() == 0 {
		if t.Failed() {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("after %d writes: %d/%d readers done, %d fallback entries", written.Load(), readersDone.Load(), readers, ct.Stats.Fallbacks.Load())
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	rg.Wait()
	if t.Failed() {
		return
	}

	writes, fallbacks := written.Load(), ct.Stats.Fallbacks.Load()
	if cfg.AlwaysFallback && fallbacks < writes {
		t.Fatalf("fallback entries = %d, want >= %d (AlwaysFallback)", fallbacks, writes)
	}
	if fallbacks < uint64(writers) {
		t.Fatalf("fallback entries = %d, want one per writer at least (%d)", fallbacks, writers)
	}
	for k, key := range hot {
		v, ok := ct.Find(key)
		if !ok || finals[v%uint64(writers)][k] != v {
			t.Fatalf("final value of key %d = %d,%v: not the last write of the writer it names", key, v, ok)
		}
	}
}

// forceFallbacks makes the first update of each of writers goroutines, all
// about to update key, lose a budget of one and queue for the fallback lock,
// whatever the scheduler does. It takes the fallback lock and key's leaf
// lock, and returns a function that waits for the writers and lets them go.
// A writer's first attempt loses on the leaf lock. The wait then frees the
// leaf only while it holds the leaf parent's lock: a writer that leaves its
// wait re-descends once the leaf is held again, and one that took the leaf
// meanwhile fails the parent's validation, so every second attempt loses
// too. The writers' aborts sum to 2·writers exactly when each has lost two
// and waits for the fallback lock; no update completes before, so readers
// that wait for a first write add none.
func forceFallbacks(t *testing.T, ct *CTree, key uint64, writers int) func() {
	n, _, ref, ok := ct.descend(&key, false, nil)
	if !ok || ref == nil {
		t.Fatal("descent to the hot leaf failed")
	}
	ct.ctrl.EnterFallback()
	ct.cc.lockLeaf(ref)
	return func() {
		deadline := time.Now().Add(30 * time.Second)
		for ct.Stats.Aborts.Load() < 2*uint64(writers) {
			if time.Now().After(deadline) {
				t.Errorf("writers lost %d attempts, want %d", ct.Stats.Aborts.Load(), 2*writers)
				break
			}
			ct.cc.lockNode(&n.lock)
			ct.cc.unlockLeaf(ref)
			runtime.Gosched() // waiters see the leaf free and re-descend
			ct.cc.lockLeaf(ref)
			ct.cc.unlockNodeNoBump(&n.lock)
			runtime.Gosched()
		}
		ct.cc.unlockLeaf(ref)
		ct.ctrl.ExitFallback()
	}
}

// TestAdaptiveConcurrentMixed drives contending writers and readers through
// a budget of one end to end, so optimistic and fallback writes mix on a few
// hot keys: the tree must stay correct.
func TestAdaptiveConcurrentMixed(t *testing.T) {
	ct := newCTree(t, Config{LeafCap: 8, InnerFanout: 4})
	ct.SetController(htm.NewAdaptiveController(htm.AdaptiveConfig{Budget: 1}))
	for i := uint64(1); i <= 64; i++ {
		if err := ct.Insert(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perWriter; i++ {
				key := uint64(w*3%8) + 1 // a few hot keys in one leaf
				if _, err := ct.Update(key, uint64(i)); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				if _, ok := ct.Find(key); !ok {
					t.Error("hot key missing")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := ct.Len(); n != 64 {
		t.Fatalf("Len = %d, want 64", n)
	}
}
