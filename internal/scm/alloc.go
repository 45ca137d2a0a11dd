package scm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Arena header layout, format version 2. Everything the allocator needs
// survives in SCM; the only volatile state is its locks. The first page holds
// the arena-wide words; it is followed by numStripes allocator stripes of one
// page each. A stripe is a complete allocator of its own — one checksummed
// intent record on a line of its own plus a free-list head per size class —
// so operations on different stripes share nothing but the bump pointer.
// Every multi-step transition is covered by the intent record of the stripe
// it runs on, so recovery can roll every allocation or deallocation forward
// or back (Section 2 of the paper, "Memory leaks").
const (
	headerMagic   = 0xF97B_EE00_5C11_0001
	formatVersion = 2

	offMagic   = 0
	offVersion = 8
	offState   = 16 // formatted flag
	offBump    = 24 // bump pointer: next never-allocated offset
	offRoot    = 32 // application root PPtr (16 bytes)
	offArenaID = 80 // persistent arena identity (PPtrs embed it)
	offClean   = 96 // clean-shutdown marker: 1 = Close completed (file-backed)

	offStripes = 4096 // first stripe; stripe s starts at offStripes + s*stripeSize
	stripeSize = 4096
	numStripes = 8
	headerSize = offStripes + numStripes*stripeSize

	// Within a stripe: the intent record, then the class heads.
	recOp        = 0  // 0 = none, 1 = alloc, 2 = free
	recRef       = 8  // offset of the caller's persistent pointer
	recSz        = 16 // requested size
	recBlk       = 24 // block in transit
	recSum       = 32 // checksum over (op, ref, sz, blk): torn-stage detector
	recSize      = 40
	stripeHeads  = 256
	numClasses   = (stripeSize - stripeHeads) / 8 // 480 classes → max 30 KiB reusable blocks
	maxClassSize = numClasses * LineSize

	intentNone  = 0
	intentAlloc = 1
	intentFree  = 2
)

// allocState is the volatile half of the allocator.
type allocState struct {
	// stripes[s] serialises the operations that run on stripe s: its intent
	// record and its free lists.
	stripes [numStripes]struct {
		mu sync.Mutex
		_  [LineSize - 8]byte
	}
	// bumpMu covers "stage the block at the bump pointer, advance it": the
	// one step operations on different stripes share.
	bumpMu     sync.Mutex
	largeFrees atomic.Uint64 // blocks too large for a free list, dropped (documented leak)
}

func stripeOff(s int) uint64 { return offStripes + uint64(s)*stripeSize }

func headOff(s, c int) uint64 { return stripeOff(s) + stripeHeads + uint64(c)*8 }

// stripeHint is the stripe an operation on refOff tries first. It is a pure
// function of refOff, so a replayed seed walks the stripes the same way.
func stripeHint(refOff uint64) int {
	h := refOff / PPtrSize * 0x9E3779B97F4A7C15
	return int(h>>32) % numStripes
}

// lockStripe locks the stripe an operation on refOff runs on. It walks the
// stripes from refOff's hint with TryLock, so it never parks while another
// stripe is free. With c >= 0 (an allocation of class c) it prefers a stripe
// whose class-c list is non-empty and returns that list's head, so the bump
// pointer only advances when no stripe it could lock can supply the class.
// A stripe it finds busy is skipped, not waited for; Alloc comes back for
// those with lockSupplier before it reports the arena full. It waits only
// when every stripe is busy.
//
// Reading a head is a charged access, and every access panics once another
// goroutine's crash fail-point has fired. The locks taken here are released
// on that path too, because Recover takes every stripe lock.
func (p *Pool) lockStripe(refOff uint64, c int) (int, uint64) {
	hint := stripeHint(refOff)
	st := &p.alloc.stripes
	// Stripes this call has locked: an empty one kept as fallback, the one
	// being examined, and of those the one it hands to the caller.
	spare, cur, ret := -1, -1, -1
	defer func() {
		for _, l := range [...]int{spare, cur} {
			if l >= 0 && l != ret {
				st[l].mu.Unlock()
			}
		}
	}()
	for i := 0; i < numStripes; i++ {
		s := (hint + i) % numStripes
		if !st[s].mu.TryLock() {
			continue
		}
		cur = s
		if c < 0 {
			ret = s
			return s, 0
		}
		if head := p.ReadU64(headOff(s, c)); head != 0 {
			ret = s
			return s, head
		}
		if spare < 0 {
			spare = s
		} else {
			st[s].mu.Unlock()
		}
		cur = -1
	}
	if spare >= 0 {
		ret = spare
		return spare, 0
	}
	st[hint].mu.Lock()
	cur = hint
	var head uint64
	if c >= 0 {
		head = p.ReadU64(headOff(hint, c))
	}
	ret = hint
	return hint, head
}

// lockSupplier is Alloc's last resort before it reports the arena full: it
// waits for each stripe in turn and returns, locked, the first whose class-c
// list is non-empty, or -1 if there is none. It holds one lock at a time, so
// two callers cannot deadlock, and like lockStripe it holds none if a read
// panics.
func (p *Pool) lockSupplier(refOff uint64, c int) (int, uint64) {
	hint := stripeHint(refOff)
	st := &p.alloc.stripes
	cur, ret := -1, -1
	defer func() {
		if cur >= 0 && cur != ret {
			st[cur].mu.Unlock()
		}
	}()
	for i := 0; i < numStripes; i++ {
		s := (hint + i) % numStripes
		st[s].mu.Lock()
		cur = s
		if head := p.ReadU64(headOff(s, c)); head != 0 {
			ret = s
			return s, head
		}
		st[s].mu.Unlock()
		cur = -1
	}
	return -1, 0
}

// intentSum mixes the four intent words into a checksum. A torn crash during
// the staging persist can commit any word prefix of the record's line — in
// particular the op word alone, which would otherwise resurrect the
// *previous* operation's block and roll back memory the application still
// owns. Recovery discards any record whose stored sum does not match;
// retiring a record rewrites the sum over op=none so a torn op-only commit
// of a later stage can never validate against leftovers.
func intentSum(op, ref, sz, blk uint64) uint64 {
	x := op ^ 0x9E3779B97F4A7C15
	for _, v := range [...]uint64{ref, sz, blk} {
		x ^= v
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 31
	}
	return x
}

// stageIntent durably records a full intent, block included, on stripe s.
// The record is one line, so this is one flush. The caller holds the stripe
// lock and has read blk from the stripe's list head or, under bumpMu, from
// the bump pointer, and changes neither before this returns: a crash that
// tears the record fails its checksum, and nothing has happened yet.
func (p *Pool) stageIntent(s int, op, refOff, size, blk uint64) {
	rec := stripeOff(s)
	p.WriteU64(rec+recOp, op)
	p.WriteU64(rec+recRef, refOff)
	p.WriteU64(rec+recSz, size)
	p.WriteU64(rec+recBlk, blk)
	p.WriteU64(rec+recSum, intentSum(op, refOff, size, blk))
	p.Persist(rec, recSize)
}

// retireIntent durably retires stripe s's intent (refOff, size, blk),
// re-binding the checksum to op=none so the retired record can never be
// mistaken for a live one.
func (p *Pool) retireIntent(s int, refOff, size, blk uint64) {
	rec := stripeOff(s)
	p.WriteU64(rec+recOp, intentNone)
	p.WriteU64(rec+recSum, intentSum(intentNone, refOff, size, blk))
	p.Persist(rec, recSize)
}

func (p *Pool) formatHeader() {
	p.WriteU64(offMagic, headerMagic)
	p.WriteU64(offVersion, formatVersion)
	p.WriteU64(offBump, headerSize)
	p.WriteU64(offArenaID, p.id)
	p.WriteU64(offState, 1)
	p.Persist(0, headerSize)
}

// loadAllocState restores the volatile allocator state after Load/OpenFile:
// the arena identity is persistent because every PPtr in the arena embeds it.
// The global ID counter is advanced past the restored ID — without that, a
// later NewPool could mint the same ArenaID and PPtrs from two live arenas
// would be indistinguishable.
func (p *Pool) loadAllocState() {
	p.id = p.ReadU64(offArenaID)
	notePoolID(p.id)
}

// notePoolID raises the global pool-ID counter to at least id (CAS-max).
func notePoolID(id uint64) {
	for {
		cur := poolIDs.Load()
		if cur >= id || poolIDs.CompareAndSwap(cur, id) {
			return
		}
	}
}

// Root returns the application root pointer stored in the arena header. It
// is the well-known anchor from which all persistent data is reachable.
func (p *Pool) Root() PPtr { return p.ReadPPtr(offRoot) }

// SetRoot durably stores the application root pointer.
func (p *Pool) SetRoot(v PPtr) {
	p.WritePPtr(offRoot, v)
	p.Persist(offRoot, PPtrSize)
}

// AllocRoot allocates a block owned by the arena root pointer itself — the
// usual way an application creates its top-level metadata block.
func (p *Pool) AllocRoot(size uint64) (PPtr, error) {
	return p.Alloc(offRoot, size)
}

// sizeClass maps a byte size to a free-list class, or -1 for sizes handled
// by bump allocation only.
func sizeClass(size uint64) int {
	c := int((size+LineSize-1)/LineSize) - 1
	if c >= numClasses {
		return -1
	}
	return c
}

func classBytes(c int) uint64 { return uint64(c+1) * LineSize }

// AllocInit carves out a block of at least size bytes, 64-byte aligned, fills
// it with init followed by zeros, makes those contents durable, and only then
// durably writes the block's address into the caller's persistent pointer at
// refOff. The order is "contents durable → pointer published → intent
// retired": a published pointer never refers to bytes the caller has yet to
// write, and the block is flushed once — not zeroed and flushed by the
// allocator and then written and flushed again by the caller. If a crash
// interrupts the allocation, Recover either completes it (the pointer holds
// the block) or rolls it back (the pointer is untouched and the block
// returns to the free list) — the block can never leak, because
// responsibility is split between the allocator and the pointer owned by the
// calling data structure. len(init) must not exceed size.
func (p *Pool) AllocInit(refOff, size uint64, init []byte) (PPtr, error) {
	if size == 0 {
		return PPtr{}, fmt.Errorf("scm: zero-size allocation")
	}
	if uint64(len(init)) > size {
		return PPtr{}, fmt.Errorf("scm: %d initial bytes for a %d-byte allocation", len(init), size)
	}
	c := sizeClass(size)
	s, head := p.lockStripe(refOff, c)
	ptr, err := p.allocOn(s, c, head, refOff, size, init)
	if err == ErrOutOfMemory && c >= 0 {
		// The bump pointer is exhausted, but lockStripe skipped the stripes
		// it found busy, and one of them may hold a free block of the class.
		if s, head := p.lockSupplier(refOff, c); s >= 0 {
			return p.allocOn(s, c, head, refOff, size, init)
		}
	}
	return ptr, err
}

// Alloc is AllocInit with no initial contents: the block is all zeros.
func (p *Pool) Alloc(refOff, size uint64) (PPtr, error) { return p.AllocInit(refOff, size, nil) }

// allocOn runs an allocation on stripe s, which the caller has locked, and
// unlocks it. head is the head of the stripe's class-c list, or 0 to carve
// the block off the bump pointer.
func (p *Pool) allocOn(s, c int, head, refOff, size uint64, init []byte) (PPtr, error) {
	defer p.alloc.stripes[s].mu.Unlock()

	blk := head
	if head != 0 {
		p.stageIntent(s, intentAlloc, refOff, size, head)
		p.WriteU64(headOff(s, c), p.ReadU64(head)) // free blocks store the next pointer in word 0
		p.Persist(headOff(s, c), 8)
	} else if b, err := p.bump(s, refOff, size); err != nil {
		return PPtr{}, err
	} else {
		blk = b
	}

	// Fill the whole block — init, then zeros, so reused memory never leaks
	// stale contents — with one persist, then publish it through the caller's
	// persistent pointer.
	p.fill(blk, roundedSize(size), init)
	ptr := PPtr{ArenaID: p.id, Offset: blk}
	p.WritePPtr(refOff, ptr)
	p.Persist(refOff, PPtrSize)

	p.retireIntent(s, refOff, size, blk)
	p.stats.Allocs.Add(1)
	return ptr, nil
}

func roundedSize(size uint64) uint64 {
	return (size + LineSize - 1) / LineSize * LineSize
}

// bump carves a block off the high-water mark for an allocation running on
// stripe s. Staging and advancing happen under bumpMu, so no two stripes
// ever stage the same block; an arena that is full stages nothing.
func (p *Pool) bump(s int, refOff, size uint64) (uint64, error) {
	p.alloc.bumpMu.Lock()
	defer p.alloc.bumpMu.Unlock()
	rs := roundedSize(size)
	blk := p.ReadU64(offBump)
	if blk+rs > uint64(len(p.mem)) {
		return 0, ErrOutOfMemory
	}
	p.stageIntent(s, intentAlloc, refOff, size, blk)
	p.WriteU64(offBump, blk+rs)
	p.Persist(offBump, 8)
	return blk, nil
}

var zeroBuf [4096]byte

// fill writes init and a zero tail over [off, off+size) and persists the
// range once.
func (p *Pool) fill(off, size uint64, init []byte) {
	p.WriteBytes(off, init)
	for o := off + uint64(len(init)); o < off+size; o += uint64(len(zeroBuf)) {
		p.WriteBytes(o, zeroBuf[:min(uint64(len(zeroBuf)), off+size-o)])
	}
	p.Persist(off, size)
}

// Free returns the block referenced by the persistent pointer at refOff to
// the allocator and durably nulls that pointer. size must be the size passed
// to Alloc. Like Alloc, the operation is made crash-atomic by the intent
// record: after recovery the pointer is either intact (free rolled back
// cleanly, still owned) or null with the block on a free list.
func (p *Pool) Free(refOff uint64, size uint64) {
	ref := p.ReadPPtr(refOff)
	if ref.IsNull() {
		return
	}
	blk := ref.Offset
	s, _ := p.lockStripe(refOff, -1)
	defer p.alloc.stripes[s].mu.Unlock()

	p.stageIntent(s, intentFree, refOff, size, blk)
	p.push(s, blk, size)
	p.WritePPtr(refOff, PPtr{})
	p.Persist(refOff, PPtrSize)
	p.retireIntent(s, refOff, size, blk)
	p.stats.Frees.Add(1)
}

// push links blk onto stripe s's free list for size's class. Idempotent: if
// blk is already the head (a crashed free being replayed), it does nothing.
func (p *Pool) push(s int, blk, size uint64) {
	c := sizeClass(size)
	if c < 0 {
		p.alloc.largeFrees.Add(1)
		return
	}
	head := p.ReadU64(headOff(s, c))
	if head == blk {
		return
	}
	p.WriteU64(blk, head)
	p.Persist(blk, 8)
	p.WriteU64(headOff(s, c), blk)
	p.Persist(headOff(s, c), 8)
}

// Recover completes or rolls back whatever allocator operations were in
// flight when the crash hit — at most one per stripe. It must run before any
// data-structure recovery touches the arena. The decision table follows
// Section 2 of the paper and is applied to each stripe on its own: the
// stripe's intent record plus the caller's persistent pointer together
// determine how far the operation progressed. Stripes cannot disagree about
// a block: a block is staged from one stripe's list or, under bumpMu, from
// the bump pointer, and callers never run two operations on one refOff.
func (p *Pool) Recover() {
	for s := range p.alloc.stripes {
		p.recoverStripe(s)
	}
}

func (p *Pool) recoverStripe(s int) {
	p.alloc.stripes[s].mu.Lock()
	defer p.alloc.stripes[s].mu.Unlock() // a crash injected into recovery unwinds through here

	rec := stripeOff(s)
	op := p.ReadU64(rec + recOp)
	if op == intentNone {
		return
	}
	refOff := p.ReadU64(rec + recRef)
	size := p.ReadU64(rec + recSz)
	blk := p.ReadU64(rec + recBlk)
	if p.ReadU64(rec+recSum) == intentSum(op, refOff, size, blk) {
		switch op {
		case intentAlloc:
			p.recoverAlloc(s, refOff, size, blk)
		case intentFree:
			p.recoverFree(s, refOff, size, blk)
		}
	}
	// A record that fails its checksum is a torn staging persist: some of its
	// words are from an older, already-retired operation. The crash hit
	// before any list or bump mutation, so the correct recovery is to do
	// nothing at all — rolling back the stale blk would push live memory
	// onto the free list (double ownership).
	p.retireIntent(s, refOff, size, blk)
}

func (p *Pool) recoverAlloc(s int, refOff, size, blk uint64) {
	if p.ReadPPtr(refOff).Offset == blk {
		return // pointer published: allocation completed
	}
	if p.ReadU64(offBump) == blk {
		return // bump path crashed before advancing: block never existed
	}
	// The block is in limbo — popped or bumped but never delivered — or its
	// pop never became durable and it still heads the list, which push
	// recognises. Roll back.
	p.push(s, blk, size)
}

func (p *Pool) recoverFree(s int, refOff, size, blk uint64) {
	if p.ReadPPtr(refOff).IsNull() {
		return // pointer already nulled: free completed
	}
	p.push(s, blk, size) // idempotent replay of the list insertion
	p.WritePPtr(refOff, PPtr{})
	p.Persist(refOff, PPtrSize)
}

// Reusable reports whether a freed block of size bytes goes back on a free
// list. A larger block is dropped (LargeFrees): its bytes are not reused.
func Reusable(size uint64) bool { return sizeClass(size) >= 0 }

// LargeFrees reports how many freed blocks were too large for the free-list
// classes and were therefore dropped rather than reused.
func (p *Pool) LargeFrees() uint64 { return p.alloc.largeFrees.Load() }

// FreeListBytes returns the bytes sitting on the stripes' free lists:
// AllocatedBytes minus this is what the application's pointers own, so a
// crash test can check that recovery leaked nothing. It walks every list and
// requires quiescence.
func (p *Pool) FreeListBytes() uint64 {
	var n uint64
	for s := 0; s < numStripes; s++ {
		for c := 0; c < numClasses; c++ {
			for blk := p.ReadU64(headOff(s, c)); blk != 0; blk = p.ReadU64(blk) {
				n += classBytes(c)
			}
		}
	}
	return n
}

// AllocatedBytes returns the high-water mark of SCM consumption: all bytes
// ever carved out of the arena (free-listed blocks still count, matching how
// the paper reports SCM footprint of a loaded tree).
func (p *Pool) AllocatedBytes() uint64 { return p.ReadU64(offBump) }
