package htm

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestVersionLockReadValidate(t *testing.T) {
	var v VersionLock
	ver := v.ReadBegin()
	if !v.ReadValidate(ver) {
		t.Fatal("validation should pass with no writer")
	}
	v.Lock()
	if v.ReadValidate(ver) {
		t.Fatal("validation should fail while locked")
	}
	v.Unlock()
	if v.ReadValidate(ver) {
		t.Fatal("validation should fail after a write")
	}
	ver2 := v.ReadBegin()
	if ver2 == ver {
		t.Fatal("version should have advanced")
	}
}

func TestVersionLockUnlockNoBump(t *testing.T) {
	var v VersionLock
	ver := v.ReadBegin()
	v.Lock()
	v.UnlockNoBump()
	if !v.ReadValidate(ver) {
		t.Fatal("no-bump unlock must keep readers valid")
	}
}

func TestVersionLockTryLock(t *testing.T) {
	var v VersionLock
	if !v.TryLock() {
		t.Fatal("TryLock on free lock")
	}
	if v.TryLock() {
		t.Fatal("TryLock on held lock")
	}
	v.Unlock()
	if !v.TryLock() {
		t.Fatal("TryLock after unlock")
	}
	v.Unlock()
}

func TestVersionLockConcurrentCounter(t *testing.T) {
	// A counter guarded by the version lock must not lose increments, and
	// optimistic readers must never observe a torn intermediate state.
	var v VersionLock
	var a, b atomic.Uint64 // invariant under the lock: a == b
	const (
		writers = 4
		perW    = 2000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				v.Lock()
				a.Add(1)
				b.Add(1)
				v.Unlock()
			}
		}()
	}
	var torn atomic.Uint64
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ver := v.ReadBegin()
				x, y := a.Load(), b.Load()
				if v.ReadValidate(ver) && x != y {
					torn.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if a.Load() != writers*perW || b.Load() != a.Load() {
		t.Fatalf("lost increments: a=%d b=%d", a.Load(), b.Load())
	}
	if torn.Load() != 0 {
		t.Fatalf("%d validated torn reads", torn.Load())
	}
}

func TestRWSpinReadersExcludeWriter(t *testing.T) {
	var l RWSpin
	if !l.TryRLock() {
		t.Fatal("reader should enter free lock")
	}
	if l.TryLock() {
		t.Fatal("writer should not enter with a reader inside")
	}
	if l.Idle() || l.Locked() {
		t.Fatal("a reader inside: Idle() should be false, Locked() too")
	}
	if !l.TryRLock() {
		t.Fatal("second reader should enter")
	}
	l.RUnlock()
	l.RUnlock()
	if !l.TryLock() {
		t.Fatal("writer should enter after readers leave")
	}
	if l.TryRLock() {
		t.Fatal("reader should not enter with writer inside")
	}
	if !l.Locked() || l.Idle() {
		t.Fatal("Locked() should report the writer, and Idle() not")
	}
	l.Unlock()
	if l.Locked() || !l.Idle() {
		t.Fatal("Locked() or not Idle() after Unlock")
	}
}

func TestRWSpinConcurrentMutualExclusion(t *testing.T) {
	var l RWSpin
	var inside atomic.Int32
	var violations atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Lock()
				if inside.Add(1) != 1 {
					violations.Add(1)
				}
				inside.Add(-1)
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations.Load())
	}
}
