package scm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The tests below exercise what striping added to the allocator: operations
// in flight on two stripes at once, blocks found on a stripe other than the
// hinted one, and the persist budget of the folded protocol. They build the
// two-stripe states single-threaded — stripe B's operation is interrupted by
// a fail-point, the emulated machine is switched back on, and B's lock is
// held while A runs, as B's goroutine would hold it — so every state replays
// from the loop indices alone.

const testBlk = LineSize // every block in these tests is one line of one class

// stripeCells is a pool with a block of pointer cells, grouped by the stripe
// their offset hints at.
type stripeCells struct {
	p     *Pool
	cells [numStripes][]uint64 // cells[s]: cell offsets with stripeHint == s
	first uint64               // first offset the allocator hands out after the cell block
}

func newStripeCells(t testing.TB, capacity int64, perStripe int) *stripeCells {
	t.Helper()
	sc := &stripeCells{p: NewPool(capacity, LatencyConfig{CacheBytes: -1})}
	const cellBytes = 16 << 10
	root, err := sc.p.AllocRoot(cellBytes)
	if err != nil {
		t.Fatal(err)
	}
	sc.first = root.Offset + cellBytes
	// One cell per line: a Persist copies its whole line, so cells that
	// different goroutines use at once must not share one.
	for off := root.Offset; off < sc.first; off += LineSize {
		if s := stripeHint(off); len(sc.cells[s]) < perStripe {
			sc.cells[s] = append(sc.cells[s], off)
		}
	}
	for s := range sc.cells {
		if len(sc.cells[s]) < perStripe {
			t.Fatalf("only %d cells hint at stripe %d, need %d", len(sc.cells[s]), s, perStripe)
		}
	}
	return sc
}

func (sc *stripeCells) all() []uint64 {
	var out []uint64
	for s := range sc.cells {
		out = append(out, sc.cells[s]...)
	}
	return out
}

// checkOwnership verifies the allocator's central invariant over one-line
// blocks: every block between the cell block and the bump pointer is owned
// by exactly one cell or sits on exactly one free list, never both, never
// neither.
func (sc *stripeCells) checkOwnership() error {
	p := sc.p
	owner := map[uint64]string{}
	claim := func(blk uint64, who string) error {
		if blk < sc.first || blk >= p.AllocatedBytes() || blk%testBlk != 0 {
			return fmt.Errorf("%s holds %#x, outside the allocated blocks [%#x,%#x)", who, blk, sc.first, p.AllocatedBytes())
		}
		if prev, dup := owner[blk]; dup {
			return fmt.Errorf("block %#x owned twice: by %s and by %s", blk, prev, who)
		}
		owner[blk] = who
		return nil
	}
	for _, cell := range sc.all() {
		if ref := p.ReadPPtr(cell); !ref.IsNull() {
			if err := claim(ref.Offset, fmt.Sprintf("cell %#x", cell)); err != nil {
				return err
			}
		}
	}
	for s := 0; s < numStripes; s++ {
		for c := 0; c < numClasses; c++ {
			for blk, n := p.ReadU64(headOff(s, c)), 0; blk != 0; blk, n = p.ReadU64(blk), n+1 {
				if c != 0 {
					return fmt.Errorf("stripe %d class %d is not empty: %#x", s, c, blk)
				}
				if n > 1<<20 {
					return fmt.Errorf("stripe %d class %d: free list does not end", s, c)
				}
				if err := claim(blk, fmt.Sprintf("free list of stripe %d", s)); err != nil {
					return err
				}
			}
		}
	}
	if want := (p.AllocatedBytes() - sc.first) / testBlk; uint64(len(owner)) != want {
		return fmt.Errorf("%d of %d blocks leaked", want-uint64(len(owner)), want)
	}
	return nil
}

// crashes runs fn and reports whether an injected crash interrupted it.
func crashes(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != ErrInjectedCrash {
				panic(r)
			}
			crashed = true
		}
	}()
	fn()
	return false
}

// stripeOp is one allocator operation on a cell, with the all-or-nothing
// check its outcome must pass after recovery.
type stripeOp struct {
	name string
	cell uint64
	blk  uint64 // Free: the block the cell held before
	run  func(p *Pool, cell uint64)
}

func allocOp(cell uint64) stripeOp {
	return stripeOp{name: "alloc", cell: cell, run: func(p *Pool, cell uint64) {
		if _, err := p.Alloc(cell, testBlk); err != nil {
			panic(err)
		}
	}}
}

func freeOp(p *Pool, cell uint64) stripeOp {
	return stripeOp{name: "free", cell: cell, blk: p.ReadPPtr(cell).Offset, run: func(p *Pool, cell uint64) {
		p.Free(cell, testBlk)
	}}
}

// atomicOutcome checks that op either happened or did not: an allocating
// cell is null or holds a zeroed block, a freeing cell still holds its block
// or is null. (Where the block went is checkOwnership's business.)
func (op stripeOp) atomicOutcome(p *Pool) error {
	ref := p.ReadPPtr(op.cell)
	switch {
	case op.name == "alloc" && !ref.IsNull():
		for i := uint64(0); i < testBlk; i += 8 {
			if v := p.ReadU64(ref.Offset + i); v != 0 {
				return fmt.Errorf("alloc delivered block %#x with stale word %#x at +%d", ref.Offset, v, i)
			}
		}
	case op.name == "free" && !ref.IsNull() && ref.Offset != op.blk:
		return fmt.Errorf("free left cell %#x holding %#x, was %#x", op.cell, ref.Offset, op.blk)
	}
	return nil
}

// TestStripeCrashEnumeration interrupts an Alloc or Free on stripe A at every
// persist, every fence and with torn lines at every persist, while stripe B
// holds a completed record or, separately, an operation interrupted at each
// of its own persists with its lock still held. After Recover no block is
// owned twice, none leaks, and both cells are all-or-nothing.
func TestStripeCrashEnumeration(t *testing.T) {
	const stA, stB, stC = 2, 5, 7
	// Where A's Alloc looks for its block: its own stripe's list, another
	// stripe's list (its own is empty), or nowhere but the bump pointer.
	scenarios := []struct {
		name   string
		seedOn int // stripe pre-loaded with two free blocks, -1 for none
		free   bool
	}{
		{"alloc-own-list", stA, false},
		{"alloc-other-list", stC, false},
		{"alloc-bump", -1, false},
		{"free", -1, true},
	}
	kinds := []struct {
		name        string
		fence, torn bool
	}{{"persist", false, false}, {"fence", true, false}, {"torn", false, true}}

	const (
		checked = iota // both interrupted as asked, recovered and verified
		aRanOut        // A completed: no step-th primitive left to interrupt
		bRanOut        // B completed although bAt asked for an interruption
	)
	// point builds a fresh arena, brings stripe B into the state bAt names
	// (-1: its operation completed; j: interrupted at its j-th persist, lock
	// held), interrupts A's operation at step, crashes, recovers and checks.
	point := func(seedOn int, aFree, bFree bool, bAt int64, fence, torn bool, step int64, id string) int {
		sc := newStripeCells(t, 256<<10, 4)
		p := sc.p
		cellA, cellB := sc.cells[stA][0], sc.cells[stB][0]
		// Every block that will be freed below is allocated first, so that no
		// later Alloc finds a seeded block before its turn.
		type seed struct {
			stripe int
			cells  []uint64
		}
		seeds := []seed{{stB, sc.cells[stB][2:3]}} // B's Alloc pops, too
		if seedOn >= 0 {
			seeds = append(seeds, seed{seedOn, sc.cells[seedOn][2:4]})
		}
		for _, sd := range seeds {
			for _, c := range sd.cells {
				allocOp(c).run(p, c)
			}
		}
		opA, opB := allocOp(cellA), allocOp(cellB)
		if aFree {
			opA.run(p, cellA)
			opA = freeOp(p, cellA)
		}
		if bFree {
			opB.run(p, cellB)
			opB = freeOp(p, cellB)
		}
		// Seed a stripe's list by freeing while every other stripe is held,
		// so the walk from the hint can only end on that stripe.
		for _, sd := range seeds {
			for s := range p.alloc.stripes {
				if s != sd.stripe {
					p.alloc.stripes[s].mu.Lock()
				}
			}
			for _, c := range sd.cells {
				p.Free(c, testBlk)
			}
			for s := range p.alloc.stripes {
				if s != sd.stripe {
					p.alloc.stripes[s].mu.Unlock()
				}
			}
		}

		if bAt > 0 {
			p.FailAfterFlushes(bAt)
		}
		bInterrupted := crashes(func() { opB.run(p, cellB) })
		p.FailAfterFlushes(-1)
		if bAt > 0 && !bInterrupted {
			return bRanOut
		}
		if bInterrupted {
			p.crashed.Store(false) // B's goroutine is merely slow; the machine is up
			p.alloc.stripes[stB].mu.Lock()
		}
		if fence {
			p.FailAfterFences(step)
		} else {
			p.FailAfterFlushes(step)
		}
		aInterrupted := crashes(func() { opA.run(p, cellA) })
		p.FailAfterFlushes(-1)
		p.FailAfterFences(-1)
		if bInterrupted {
			p.alloc.stripes[stB].mu.Unlock()
		}
		if !aInterrupted {
			return aRanOut
		}

		if torn {
			p.CrashTornSeed(step*131 + bAt)
		} else {
			p.Crash()
		}
		p.Recover()
		if err := sc.checkOwnership(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, op := range []stripeOp{opA, opB} {
			if err := op.atomicOutcome(p); err != nil {
				t.Fatalf("%s: %s on stripe %d: %v", id, op.name, stripeHint(op.cell), err)
			}
		}
		// The recovered allocator keeps working on every stripe.
		for s := range sc.cells {
			if _, err := p.Alloc(sc.cells[s][1], testBlk); err != nil {
				t.Fatalf("%s: alloc after recovery: %v", id, err)
			}
		}
		if err := sc.checkOwnership(); err != nil {
			t.Fatalf("%s: after further allocations: %v", id, err)
		}
		return checked
	}

	points := 0
	for _, sn := range scenarios {
		for _, bFree := range []bool{false, true} {
		bStates:
			for bAt := int64(-1); ; bAt++ {
				if bAt == 0 {
					continue
				}
				for _, kind := range kinds {
					for step := int64(1); ; step++ {
						id := fmt.Sprintf("A %s crash@%s[%d], B free=%v state %d", sn.name, kind.name, step, bFree, bAt)
						res := point(sn.seedOn, sn.free, bFree, bAt, kind.fence, kind.torn, step, id)
						if res == bRanOut {
							break bStates
						}
						if res == aRanOut {
							break
						}
						points++
					}
				}
			}
		}
	}
	if points < 500 {
		t.Fatalf("only %d crash points enumerated; the grid is not reaching the allocator", points)
	}
	t.Logf("%d two-stripe crash points", points)
}

// TestStripeParallelHammer runs Alloc and Free from several goroutines on
// disjoint cells against an ownership oracle — a block handed out while the
// oracle says someone holds it is a double allocation — then crashes,
// recovers and walks the free lists.
func TestStripeParallelHammer(t *testing.T) {
	const workers, perWorker = 4, 20000
	sc := newStripeCells(t, 4<<20, 2*workers)
	p := sc.p
	var owned sync.Map // block -> owning worker
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		var mine []uint64 // two cells per stripe, this worker's alone
		for s := range sc.cells {
			mine = append(mine, sc.cells[s][2*w], sc.cells[s][2*w+1])
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				cell := mine[rng.Intn(len(mine))]
				if ref := p.ReadPPtr(cell); !ref.IsNull() {
					if got := p.ReadU64(ref.Offset + 8); got != cell {
						t.Errorf("worker %d: block %#x of cell %#x was overwritten with %#x", w, ref.Offset, cell, got)
						return
					}
					owned.Delete(ref.Offset)
					p.Free(cell, testBlk)
					continue
				}
				ptr, err := p.Alloc(cell, testBlk)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if prev, dup := owned.LoadOrStore(ptr.Offset, w); dup {
					t.Errorf("worker %d was handed block %#x, which worker %d holds", w, ptr.Offset, prev)
					return
				}
				p.WriteU64(ptr.Offset+8, cell)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	p.Crash()
	p.Recover()
	if err := sc.checkOwnership(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats().Snapshot()
	if live := st.Allocs - 1 - st.Frees; live > uint64(len(sc.all())) { // -1: the cell block
		t.Fatalf("%d allocs, %d frees: more live blocks than cells", st.Allocs, st.Frees)
	}
	// Reuse held: the arena never needed more blocks than there are cells,
	// plus the few a busy stripe may have kept from a concurrent Alloc.
	if blocks := (p.AllocatedBytes() - sc.first) / testBlk; blocks > uint64(2*len(sc.all())) {
		t.Fatalf("arena grew to %d blocks for at most %d live ones", blocks, len(sc.all()))
	}
}

// allocatorLocksFree fails the test if any allocator lock is still held.
func allocatorLocksFree(t *testing.T, p *Pool, when string) {
	t.Helper()
	for s := range p.alloc.stripes {
		if !p.alloc.stripes[s].mu.TryLock() {
			t.Fatalf("%s: the lock of stripe %d is still held; Recover would wait for it forever", when, s)
		}
		p.alloc.stripes[s].mu.Unlock()
	}
	if !p.alloc.bumpMu.TryLock() {
		t.Fatalf("%s: the bump lock is still held", when)
	}
	p.alloc.bumpMu.Unlock()
}

// TestStripeLocksReleasedByCrashInStripeWalk covers the accesses the
// allocator makes while it chooses a stripe: once a crash has fired on
// another goroutine they panic, with one or two stripe locks taken and
// Alloc's deferred unlock not yet registered.
func TestStripeLocksReleasedByCrashInStripeWalk(t *testing.T) {
	sc := newStripeCells(t, 256<<10, 2)
	p := sc.p
	cell := sc.cells[3][0]

	// The machine fails before the walk reads its first list head.
	p.crashed.Store(true)
	if !crashes(func() { p.Alloc(cell, testBlk) }) {
		t.Fatal("Alloc ran on a crashed machine")
	}
	allocatorLocksFree(t, p, "crash at the first head read")

	// It fails while Alloc waits for its hinted stripe, every stripe being
	// busy: the read under the lock it then gets panics.
	p.crashed.Store(false)
	for s := range p.alloc.stripes {
		p.alloc.stripes[s].mu.Lock()
	}
	done := make(chan bool)
	go func() { done <- crashes(func() { p.Alloc(cell, testBlk) }) }()
	time.Sleep(10 * time.Millisecond) // let it park; the check holds either way
	p.crashed.Store(true)
	for s := range p.alloc.stripes {
		p.alloc.stripes[s].mu.Unlock()
	}
	if !<-done {
		t.Fatal("Alloc ran on a crashed machine")
	}
	allocatorLocksFree(t, p, "crash while waiting for the hinted stripe")

	p.Crash()
	p.Recover()
	if err := sc.checkOwnership(); err != nil {
		t.Fatal(err)
	}
}

// TestStripeCrashUnderParallelLoad fires a crash fail-point while several
// goroutines allocate and free: the one that trips it dies in a Persist, the
// others at their next access, wherever that is — inside the stripe walk
// included. Every lock must be free afterwards, and Recover must settle up to
// one in-flight operation per stripe.
func TestStripeCrashUnderParallelLoad(t *testing.T) {
	const workers, rounds = 4, 150
	sc := newStripeCells(t, 4<<20, 2*workers)
	p := sc.p
	for round := 0; round < rounds; round++ {
		p.FailAfterFlushes(int64(50 + 37*round%400))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			var mine []uint64
			for s := range sc.cells {
				mine = append(mine, sc.cells[s][2*w], sc.cells[s][2*w+1])
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*workers + w)))
				crashes(func() {
					for {
						cell := mine[rng.Intn(len(mine))]
						if p.ReadPPtr(cell).IsNull() {
							if _, err := p.Alloc(cell, testBlk); err != nil {
								panic(err)
							}
						} else {
							p.Free(cell, testBlk)
						}
					}
				})
			}(w)
		}
		wg.Wait()
		allocatorLocksFree(t, p, fmt.Sprintf("round %d", round))
		p.CrashTornSeed(int64(round))
		p.Recover()
		if err := sc.checkOwnership(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestStripeAllocWaitsForBusyStripeWhenFull fills the arena, frees one block
// and keeps the stripe it went to busy. An Alloc of the class must wait for
// that stripe and reuse the block, as an allocator under one lock would, not
// report the arena full because its walk skipped the stripe.
func TestStripeAllocWaitsForBusyStripeWhenFull(t *testing.T) {
	sc := newStripeCells(t, 256<<10, 2)
	p := sc.p
	cellFreed, cellRest, cellNew := sc.cells[0][0], sc.cells[0][1], sc.cells[3][0]
	freed, err := p.Alloc(cellFreed, testBlk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(cellRest, uint64(p.Size())-p.AllocatedBytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(cellNew, testBlk); err != ErrOutOfMemory {
		t.Fatalf("Alloc on a full arena: %v, want ErrOutOfMemory", err)
	}
	p.Free(cellFreed, testBlk)
	holder := stripeHint(cellFreed) // every stripe was free, so the block went to its hint
	if stripeHint(cellNew) == holder {
		t.Fatal("test needs the two cells on different stripes")
	}

	p.alloc.stripes[holder].mu.Lock()
	type result struct {
		ptr PPtr
		err error
	}
	done := make(chan result)
	go func() {
		ptr, err := p.Alloc(cellNew, testBlk)
		done <- result{ptr, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("Alloc returned (%v, %v) while the stripe holding the only free block was busy", r.ptr, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	p.alloc.stripes[holder].mu.Unlock()
	if r := <-done; r.err != nil || r.ptr.Offset != freed.Offset {
		t.Fatalf("Alloc = (%v, %v), want the freed block %#x", r.ptr, r.err, freed.Offset)
	}
}

// TestStripeChurnDoesNotGrow frees and allocates one class through cells
// that hint at every stripe. Once every cell has held a block, an Alloc
// always finds a free block on some stripe, so the bump pointer stands still.
func TestStripeChurnDoesNotGrow(t *testing.T) {
	sc := newStripeCells(t, 1<<20, 8)
	p := sc.p
	cells := sc.all()
	for _, c := range cells {
		if _, err := p.Alloc(c, testBlk); err != nil {
			t.Fatal(err)
		}
	}
	warm := p.AllocatedBytes()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50000; i++ {
		c := cells[rng.Intn(len(cells))]
		if p.ReadPPtr(c).IsNull() {
			if _, err := p.Alloc(c, testBlk); err != nil {
				t.Fatal(err)
			}
		} else {
			p.Free(c, testBlk)
		}
	}
	if got := p.AllocatedBytes(); got != warm {
		t.Fatalf("AllocatedBytes grew from %d to %d under steady churn of %d cells", warm, got, len(cells))
	}
	if err := sc.checkOwnership(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocFlushBudget pins the persist cost of the folded protocol for a
// one-line block: stage, list head or bump pointer, the block's line, the
// caller's pointer, retire — five flushes and five fences per Alloc and per
// Free. AllocInit costs the same five with the caller's bytes in the block
// and durable; Alloc followed by the caller's own write and persist is six.
func TestAllocFlushBudget(t *testing.T) {
	sc := newStripeCells(t, 1<<20, 1)
	p := sc.p
	cell := sc.cells[0][0]
	cost := func(fn func()) (flushes, fences uint64) {
		f0, n0 := p.Stats().FlushFence()
		fn()
		f1, n1 := p.Stats().FlushFence()
		return f1 - f0, n1 - n0
	}
	contents := []byte("sixteen byte key")
	var blk PPtr
	alloc := func() {
		var err error
		if blk, err = p.Alloc(cell, testBlk); err != nil {
			t.Fatal(err)
		}
	}
	allocInit := func() {
		var err error
		if blk, err = p.AllocInit(cell, testBlk, contents); err != nil {
			t.Fatal(err)
		}
	}
	allocThenWrite := func() {
		alloc()
		p.WriteBytes(blk.Offset, contents)
		p.Persist(blk.Offset, uint64(len(contents)))
	}
	free := func() { p.Free(cell, testBlk) }
	for _, step := range []struct {
		name string
		fn   func()
		want uint64
	}{
		{"Alloc (bump)", alloc, 5}, {"Free", free, 5}, {"Alloc (free list)", alloc, 5}, {"Free again", free, 5},
		{"AllocInit (free list)", allocInit, 5}, {"Free after AllocInit", free, 5},
		{"Alloc + write + persist", allocThenWrite, 6},
	} {
		if flushes, fences := cost(step.fn); flushes != step.want || fences != step.want {
			t.Errorf("%s: %d flushes, %d fences, want %d of each", step.name, flushes, fences, step.want)
		}
	}

	// AllocInit's contents and zero tail are durable when it returns, over a
	// reused block that held other bytes.
	free()
	allocInit()
	p.Crash()
	want := append(append([]byte(nil), contents...), make([]byte, testBlk-len(contents))...)
	if got := p.ReadBytes(blk.Offset, testBlk); !bytes.Equal(got, want) {
		t.Errorf("block after AllocInit and a crash = %q, want the contents and a zero tail", got)
	}
	if _, err := p.AllocInit(cell, 8, contents); err == nil {
		t.Error("AllocInit accepted more initial bytes than the block's size")
	}
}

// TestVersion1ImageRejected hand-builds the header of a format-1 arena (one
// 4 KiB header page, intent record at offset 48, free-list heads at 256) and
// checks that Load and OpenFile refuse it by name instead of reading its
// heads as a stripe.
func TestVersion1ImageRejected(t *testing.T) {
	img := make([]byte, 8192)
	binary.LittleEndian.PutUint64(img[offMagic:], headerMagic)
	binary.LittleEndian.PutUint64(img[offVersion:], 1)
	binary.LittleEndian.PutUint64(img[offState:], 1)
	binary.LittleEndian.PutUint64(img[offBump:], 4096)
	binary.LittleEndian.PutUint64(img[offArenaID:], 7)
	path := filepath.Join(t.TempDir(), "v1.img")
	if err := writeFile(path, img); err != nil {
		t.Fatal(err)
	}
	const want = "arena format v1, this build reads v2"
	if _, err := Load(path, LatencyConfig{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Load of a v1 image: %v, want %q", err, want)
	}
	if _, _, err := OpenFile(path, 0, LatencyConfig{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenFile of a v1 image: %v, want %q", err, want)
	}
	// A current image loads; with only its version word changed it is refused
	// the same way, so the check reads the word and not the file size.
	cur := filepath.Join(t.TempDir(), "v2.img")
	if err := NewPool(1<<20, LatencyConfig{}).Save(cur); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(cur, LatencyConfig{}); err != nil {
		t.Fatalf("Load of a current image: %v", err)
	}
	data, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(data[offVersion:], 1)
	if err := writeFile(cur, data); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(cur, LatencyConfig{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Load of a current image marked v1: %v, want %q", err, want)
	}
}
