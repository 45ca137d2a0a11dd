package scm_test

// The allocator crash-enumeration tests live in an external test package so
// they can drive the shared crashtest harness (which imports scm) without an
// import cycle. They are the promoted form of the original crashEveryFlush
// helper tests.

import (
	"bytes"
	"testing"

	"fptree/internal/crashtest"
	"fptree/internal/scm"
)

func newCrashPool(t *testing.T) *scm.Pool {
	t.Helper()
	return scm.NewPool(1<<20, scm.LatencyConfig{CacheBytes: -1})
}

// refCells allocates the root block to hold persistent-pointer cells, so
// cells never overlap blocks handed out later.
func refCells(t *testing.T, p *scm.Pool) uint64 {
	t.Helper()
	ptr, err := p.AllocRoot(1024)
	if err != nil {
		t.Fatal(err)
	}
	return ptr.Offset
}

// allocVerify returns the invariant check both allocator enumerations share:
// after recovery, allocating twice must yield two distinct blocks.
func allocVerify(t *testing.T, p *scm.Pool, base uint64, size uint64) func(pt crashtest.Point) error {
	return func(pt crashtest.Point) error {
		p.Recover()
		r1, r2 := base+32, base+48
		a, err := p.Alloc(r1, size)
		if err != nil {
			t.Fatalf("%v: %v", pt, err)
		}
		b, err := p.Alloc(r2, size)
		if err != nil {
			t.Fatalf("%v: %v", pt, err)
		}
		if a.Offset == b.Offset {
			t.Fatalf("%v: double allocation of %#x", pt, a.Offset)
		}
		p.Free(r1, size)
		p.Free(r2, size)
		return nil
	}
}

func TestAllocCrashAtEveryFlushNeverLeaks(t *testing.T) {
	// After every possible crash point inside AllocInit — before each flush,
	// at each fence, and with torn lines — recovery must leave the arena in a
	// state where the block is either owned by the ref cell or back on the
	// free list, and a ref cell that holds the block must find the caller's
	// bytes and a zero tail in it, never what the block held before.
	contents := bytes.Repeat([]byte("key"), 40)
	want := append(append([]byte(nil), contents...), make([]byte, 192-len(contents))...)
	for _, opts := range []crashtest.Options{{Persists: true}, {Fences: true}, {Persists: true, Torn: true, Seed: 42}} {
		p := newCrashPool(t)
		base := refCells(t, p)
		refOff := base
		// Pre-populate one free-listed block, full of stale bytes, so both
		// carve paths are exercised.
		warm := base + 16
		if _, err := p.AllocInit(warm, 192, bytes.Repeat([]byte{0xFF}, 192)); err != nil {
			t.Fatal(err)
		}
		p.Free(warm, 192)

		verify := allocVerify(t, p, base, 192)
		n := crashtest.Enumerate(t, p, opts,
			func() error {
				_, err := p.AllocInit(refOff, 192, contents)
				return err
			},
			func(pt crashtest.Point) error {
				if err := verify(pt); err != nil {
					return err
				}
				if ref := p.ReadPPtr(refOff); !ref.IsNull() {
					if got := p.ReadBytes(ref.Offset, 192); !bytes.Equal(got, want) {
						t.Fatalf("%v: published block %#x holds %q", pt, ref.Offset, got)
					}
					// Completed before the crash point mattered: free it so
					// the next iteration starts from the same state.
					p.Free(refOff, 192)
				}
				return nil
			})
		if n < 5 {
			t.Fatalf("%+v: only %d crash points", opts, n)
		}
	}
}

func TestFreeCrashAtEveryFlushIsExactlyOnce(t *testing.T) {
	p := newCrashPool(t)
	base := refCells(t, p)
	refOff := base
	if _, err := p.Alloc(refOff, 256); err != nil {
		t.Fatal(err)
	}
	verify := allocVerify(t, p, base, 256)
	crashtest.EveryPersist(t, p,
		func() error {
			if p.ReadPPtr(refOff).IsNull() {
				// Free completed in an earlier iteration: re-allocate so the
				// operation under test runs again.
				if _, err := p.Alloc(refOff, 256); err != nil {
					return err
				}
			}
			p.Free(refOff, 256)
			return nil
		},
		func(pt crashtest.Point) error {
			// After recovery the ref is either intact (free rolled forward on
			// next run) or null. Either way a fresh alloc/free pair must work
			// and never hand out the same block twice.
			if err := verify(pt); err != nil {
				return err
			}
			for _, r := range []uint64{base + 32, base + 48} {
				a, err := p.Alloc(r, 256)
				if err != nil {
					t.Fatalf("%v: %v", pt, err)
				}
				if a.Offset == p.ReadPPtr(refOff).Offset {
					t.Fatalf("%v: allocator handed out a block still owned by ref", pt)
				}
				p.Free(r, 256)
			}
			return nil
		})
}

func TestFailAfterFencesFiresAfterFlush(t *testing.T) {
	// A fence-granularity crash interrupts Persist AFTER its write-backs:
	// the covered line must be durable, unlike the flush-granularity crash.
	p := newCrashPool(t)
	base := refCells(t, p)
	p.WriteU64(base, 41)
	p.Persist(base, 8)

	p.FailAfterFences(1)
	crashed, _ := crashtest.Crashes(func() error {
		p.WriteU64(base, 42)
		p.Persist(base, 8)
		return nil
	})
	if !crashed {
		t.Fatal("fence fail-point never fired")
	}
	p.Crash()
	if got := p.ReadU64(base); got != 42 {
		t.Fatalf("after fence crash value = %d, want 42 (flushed before the fence)", got)
	}

	p.FailAfterFlushes(1)
	crashed, _ = crashtest.Crashes(func() error {
		p.WriteU64(base, 43)
		p.Persist(base, 8)
		return nil
	})
	if !crashed {
		t.Fatal("flush fail-point never fired")
	}
	p.Crash()
	if got := p.ReadU64(base); got != 42 {
		t.Fatalf("after flush crash value = %d, want 42 (crash fires before the flush)", got)
	}
}

func TestExplicitFenceCrash(t *testing.T) {
	p := newCrashPool(t)
	p.FailAfterFences(1)
	crashed, _ := crashtest.Crashes(func() error {
		p.Fence()
		return nil
	})
	if !crashed {
		t.Fatal("explicit Fence did not consume the fence fail-point")
	}
	p.Crash()
}

func TestCrashTornSeedDeterministic(t *testing.T) {
	// The same seed over the same dirty state must commit the same torn
	// image — the property that lets a failing enumeration replay exactly.
	images := make([][]byte, 2)
	for trial := range images {
		p := newCrashPool(t)
		base := refCells(t, p)
		for i := uint64(0); i < 64; i++ {
			p.WriteU64(base+8*i, i*0x0101010101010101)
		}
		p.CrashTornSeed(1234)
		images[trial] = p.ReadBytes(base, 512)
	}
	if string(images[0]) != string(images[1]) {
		t.Fatal("CrashTornSeed produced different images for identical state and seed")
	}
}
