package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"fptree/internal/scm"
)

// leafShape is the codec-independent geometry the engine needs for header
// reads, bitmap commits and next-pointer chasing.
type leafShape struct {
	cap       int
	hasFP     bool
	offBitmap uint64
	offNext   uint64
	size      uint64
}

// codec owns everything that depends on the key representation: the leaf slot
// layout, fingerprints, comparisons, slot read/write/persist, and the
// key-ownership bookkeeping that only variable-size keys need (Appendix C).
// The engine never touches a slot except through this interface.
//
// Fixed codec: inline u64 key + u64 value per slot, nothing to allocate or
// leak. Var codec: each slot holds a persistent pointer to a separately
// allocated key block plus an inline value, so insert/update/delete/split all
// have extra ownership steps (the no-op methods below on the fixed codec).
type codec[K, V any] interface {
	shape() leafShape
	less(a, b K) bool
	fingerprint(k K) byte
	// validateKey rejects keys the codec cannot store (empty var keys).
	validateKey(k K) error

	slotKey(leaf uint64, s int) K
	slotKeyEquals(leaf uint64, s int, k K) bool
	slotValue(leaf uint64, s int) V

	// writeSlot persists the key and value payload of a free slot. It does
	// NOT touch the fingerprint or bitmap — engine.commitSlot owns those.
	writeSlot(leaf uint64, slot int, k K, v V) error
	// moveSlot restages an existing slot's key with a new value into a free
	// slot (update path). The var codec copies the key's persistent pointer
	// instead of re-allocating (Algorithm 16).
	moveSlot(leaf uint64, slot, prev int, k K, v V)
	// afterUpdate runs after the bitmap commit of an update; the var codec
	// nulls the old slot's key pointer so the key keeps exactly one owner.
	afterUpdate(leaf uint64, prev int)
	// releaseSlotKey frees per-slot key storage after a delete's bitmap flip.
	releaseSlotKey(leaf uint64, slot int)
	// afterSplitBitmaps restores per-slot ownership invariants once the two
	// halves' complementary bitmaps are durable (var: null the invalid
	// slots' key pointers in both halves).
	afterSplitBitmaps(leaf, newLeaf uint64)
	// scanLeaks is the detection half of the Algorithm 17 per-leaf recovery
	// scan: it reads the leaf and reports the repairs needed, without
	// touching SCM. Read-only so parallel recovery workers may run it
	// concurrently; the engine applies the actions sequentially afterwards.
	scanLeaks(leaf uint64) []leakAction
	// applyLeaks performs the durable repairs scanLeaks detected, in slot
	// order.
	applyLeaks(leaf uint64, acts []leakAction)
	// scanLeaf is the one-stop per-leaf recovery read: the live max key, the
	// live count, and the scanLeaks repairs, computed from a single batched
	// read of the leaf image (one emulator crossing instead of one per slot
	// — the recovery scan visits every slot anyway, so per-slot accessors
	// only add overhead). Read-only, so recovery workers run it in parallel;
	// it must detect exactly the repairs scanLeaks would.
	scanLeaf(leaf uint64) (K, int, []leakAction)

	// checkInvalidSlot / ownerToken support CheckInvariants: codec-specific
	// invariants of invalid slots, and a token identifying shared key
	// storage (each token must have exactly one owning slot).
	checkInvalidSlot(leaf uint64, s int) error
	ownerToken(leaf uint64, s int) (scm.PPtr, bool)

	// nextAfter returns the smallest key greater than k, or ok=false when no
	// such key exists (fixed u64 overflow). Range reads use it to step past
	// a separator upper bound or the last key they handed out.
	nextAfter(k K) (K, bool)
	// keyDRAMBytes estimates the DRAM cost of holding k in an inner node.
	keyDRAMBytes(k K) uint64
}

// --- fixed-size keys ---------------------------------------------------------

type fixedCodec struct {
	pool *scm.Pool
	lay  fixedLayout
}

func newFixedCodec(pool *scm.Pool, cfg Config) *fixedCodec {
	return &fixedCodec{pool: pool, lay: newFixedLayoutV(cfg.LeafCap, cfg.Variant)}
}

func (c *fixedCodec) shape() leafShape {
	return leafShape{cap: c.lay.cap, hasFP: c.lay.hasFP, offBitmap: c.lay.offBitmap, offNext: c.lay.offNext, size: c.lay.size}
}

func (c *fixedCodec) less(a, b uint64) bool     { return a < b }
func (c *fixedCodec) fingerprint(k uint64) byte { return hash1(k) }
func (c *fixedCodec) validateKey(uint64) error  { return nil }

func (c *fixedCodec) slotKey(leaf uint64, s int) uint64 {
	return c.pool.ReadU64(c.lay.keyOff(leaf, s))
}

func (c *fixedCodec) slotKeyEquals(leaf uint64, s int, k uint64) bool {
	return c.pool.ReadU64(c.lay.keyOff(leaf, s)) == k
}

func (c *fixedCodec) slotValue(leaf uint64, s int) uint64 {
	return c.pool.ReadU64(c.lay.valOff(leaf, s))
}

func (c *fixedCodec) writeSlot(leaf uint64, slot int, k, v uint64) error {
	c.pool.WriteU64(c.lay.keyOff(leaf, slot), k)
	c.pool.WriteU64(c.lay.valOff(leaf, slot), v)
	if c.lay.hasFP {
		// Interleaved slot: key and value are contiguous, one flush covers
		// both (the forks disagreed here — two flushes was pure overhead).
		c.pool.Persist(c.lay.keyOff(leaf, slot), 16)
	} else {
		// PTree keeps separate key/value arrays; the two words land on
		// different cache lines.
		c.pool.Persist(c.lay.keyOff(leaf, slot), 8)
		c.pool.Persist(c.lay.valOff(leaf, slot), 8)
	}
	return nil
}

func (c *fixedCodec) moveSlot(leaf uint64, slot, prev int, k, v uint64) {
	c.writeSlot(leaf, slot, k, v) //nolint:errcheck // fixed writeSlot cannot fail
}

func (c *fixedCodec) afterUpdate(uint64, int)            {}
func (c *fixedCodec) releaseSlotKey(uint64, int)         {}
func (c *fixedCodec) afterSplitBitmaps(uint64, uint64)   {}
func (c *fixedCodec) scanLeaks(uint64) []leakAction      { return nil }
func (c *fixedCodec) applyLeaks(uint64, []leakAction)    {}
func (c *fixedCodec) checkInvalidSlot(uint64, int) error { return nil }

// scanLeaf reads the whole leaf image once and folds the max-key scan over
// it; fixed keys have no leak repairs.
func (c *fixedCodec) scanLeaf(leaf uint64) (uint64, int, []leakAction) {
	buf := c.pool.ReadBytes(leaf, c.lay.size)
	bm := binary.LittleEndian.Uint64(buf[c.lay.offBitmap:])
	var maxK uint64
	n := 0
	for s := 0; s < c.lay.cap; s++ {
		if bm&(1<<s) == 0 {
			continue
		}
		k := binary.LittleEndian.Uint64(buf[c.lay.keyOff(0, s):])
		n++
		if n == 1 || k > maxK {
			maxK = k
		}
	}
	return maxK, n, nil
}

func (c *fixedCodec) ownerToken(uint64, int) (scm.PPtr, bool) { return scm.PPtr{}, false }

func (c *fixedCodec) nextAfter(k uint64) (uint64, bool) {
	if k == ^uint64(0) {
		return 0, false
	}
	return k + 1, true
}

func (c *fixedCodec) keyDRAMBytes(uint64) uint64 { return 8 }

// --- variable-size keys ------------------------------------------------------

type varCodec struct {
	pool    *scm.Pool
	lay     varLayout
	valSize int
}

func newVarCodec(pool *scm.Pool, cfg Config) *varCodec {
	return &varCodec{pool: pool, lay: newVarLayoutV(cfg.LeafCap, cfg.ValueSize, cfg.Variant), valSize: cfg.ValueSize}
}

func (c *varCodec) shape() leafShape {
	return leafShape{cap: c.lay.cap, hasFP: c.lay.hasFP, offBitmap: c.lay.offBitmap, offNext: c.lay.offNext, size: c.lay.size}
}

func (c *varCodec) less(a, b []byte) bool     { return bytes.Compare(a, b) < 0 }
func (c *varCodec) fingerprint(k []byte) byte { return hash1Bytes(k) }

func (c *varCodec) validateKey(k []byte) error {
	if len(k) == 0 {
		return fmt.Errorf("fptree: empty key")
	}
	return nil
}

func (c *varCodec) slotPKey(leaf uint64, s int) scm.PPtr {
	return c.pool.ReadPPtr(c.lay.pkeyOff(leaf, s))
}

func (c *varCodec) slotKLen(leaf uint64, s int) uint64 {
	return c.pool.ReadU64(c.lay.klenOff(leaf, s))
}

// slotKey dereferences the slot's key pointer — the extra SCM cache miss
// that makes fingerprints so valuable for string keys.
func (c *varCodec) slotKey(leaf uint64, s int) []byte {
	pk := c.slotPKey(leaf, s)
	return c.pool.ReadBytes(pk.Offset, c.slotKLen(leaf, s))
}

func (c *varCodec) slotKeyEquals(leaf uint64, s int, k []byte) bool {
	if c.slotKLen(leaf, s) != uint64(len(k)) {
		return false
	}
	pk := c.slotPKey(leaf, s)
	return c.pool.EqualBytes(pk.Offset, k)
}

func (c *varCodec) slotValue(leaf uint64, s int) []byte {
	return c.pool.ReadBytes(c.lay.valOff(leaf, s), uint64(c.valSize))
}

// writeSlot performs lines 12-18 of Algorithm 14 with each line flushed once:
// the key length and the value are staged and persisted together, then the
// allocator fills the key block with the key's bytes, makes it durable and
// durably publishes it in the slot's pointer cell (so a crash can never leak
// it, and a published pointer never refers to unwritten bytes). Alg. 14
// persists the value after the allocation; staging it before is
// crash-equivalent, because the slot stays invisible until the bitmap commit
// and the only thing recovery reads from an invalid slot — the length the
// leak scan frees the key block by — is durable before the pointer is, as in
// the paper.
func (c *varCodec) writeSlot(leaf uint64, slot int, k, v []byte) error {
	c.pool.WriteU64(c.lay.klenOff(leaf, slot), uint64(len(k)))
	c.stageValue(leaf, slot, v)
	c.pool.Persist(c.lay.klenOff(leaf, slot), 8+uint64(c.valSize))
	_, err := c.pool.AllocInit(c.lay.pkeyOff(leaf, slot), uint64(len(k)), k)
	return err
}

// zeroValue pads values shorter than the slot (Config.ValueSize <= 4096).
var zeroValue [4096]byte

// stageValue stores value into the slot's fixed-size value field, truncated
// or zero-padded to valSize, without persisting it. It writes in place: the
// value and then the zero tail, no staging buffer.
func (c *varCodec) stageValue(leaf uint64, slot int, value []byte) {
	off := c.lay.valOff(leaf, slot)
	if len(value) > c.valSize {
		value = value[:c.valSize]
	}
	c.pool.WriteBytes(off, value)
	c.pool.WriteBytes(off+uint64(len(value)), zeroValue[:c.valSize-len(value)])
}

// moveSlot copies the previous slot's key pointer and length instead of
// re-allocating the key (Algorithm 16), stages the new value beside them and
// persists the slot once: after the bitmap flip the key briefly has two
// owners, which afterUpdate repairs.
func (c *varCodec) moveSlot(leaf uint64, slot, prev int, k, v []byte) {
	c.pool.WritePPtr(c.lay.pkeyOff(leaf, slot), c.slotPKey(leaf, prev))
	c.pool.WriteU64(c.lay.klenOff(leaf, slot), c.slotKLen(leaf, prev))
	c.stageValue(leaf, slot, v)
	c.pool.Persist(c.lay.slotOff(leaf, slot), scm.PPtrSize+8+uint64(c.valSize))
}

// afterUpdate resets the old slot's reference so the key has exactly one
// owner again (Algorithm 16, line 16).
func (c *varCodec) afterUpdate(leaf uint64, prev int) {
	c.pool.WritePPtr(c.lay.pkeyOff(leaf, prev), scm.PPtr{})
	c.pool.Persist(c.lay.pkeyOff(leaf, prev), scm.PPtrSize)
}

// releaseSlotKey deallocates the key block through the slot's pointer cell
// (which nulls it durably).
func (c *varCodec) releaseSlotKey(leaf uint64, slot int) {
	c.pool.Free(c.lay.pkeyOff(leaf, slot), c.slotKLen(leaf, slot))
}

// afterSplitBitmaps nulls the invalid slots' key pointers in both halves so
// every key block has exactly one owning reference — otherwise the Algorithm
// 17 leak scan could reclaim a key still referenced by the sibling leaf.
func (c *varCodec) afterSplitBitmaps(leaf, newLeaf uint64) {
	c.resetInvalidPKeys(leaf)
	c.resetInvalidPKeys(newLeaf)
}

// resetInvalidPKeys writes every null first and then persists the slot array
// once — the lines of one leaf are flushed once each, not once per moved
// slot. The nulls are independent of each other and recovery redoes the whole
// pass from the split micro-log, so which of them a crash keeps is immaterial.
func (c *varCodec) resetInvalidPKeys(leaf uint64) {
	bm := c.pool.ReadU64(leaf + c.lay.offBitmap)
	first, end := uint64(0), uint64(0) // the nulled cells span [first, end)
	for s := 0; s < c.lay.cap; s++ {
		if bm&(1<<s) != 0 || c.slotPKey(leaf, s).IsNull() {
			continue
		}
		off := c.lay.pkeyOff(leaf, s)
		c.pool.WritePPtr(off, scm.PPtr{})
		if end == 0 {
			first = off
		}
		end = off + scm.PPtrSize
	}
	c.pool.Persist(first, end-first)
}

// leakAction is one repair the Algorithm 17 leak scan detected in a leaf:
// either deallocate the invalid slot's key block (free) or just null the
// slot's dangling reference (the block is still owned by a valid slot).
type leakAction struct {
	slot int
	free bool
}

// sameKeyBlock reports whether two slot pointers reference one key block. It
// compares the offsets only: a PPtr store is two words, and a torn crash while
// afterUpdate nulls the old slot's pointer can keep the zero ArenaID without
// the zero Offset, leaving {0, X} beside the live slot's {arena, X}. Compared
// whole, the leak scan took that key for unshared and freed the live block.
// All blocks of a leaf's keys are in the leaf's arena, so the offset
// identifies the block.
func sameKeyBlock(a, b scm.PPtr) bool { return a.Offset == b.Offset }

// scanLeaks is the detection half of Algorithm 17: for every invalid slot
// with a non-null key pointer, decide between the update-crash case (another
// valid slot in the same leaf references the same key: reset the pointer)
// and the insert/delete-crash case (no other reference: deallocate the key).
func (c *varCodec) scanLeaks(leaf uint64) []leakAction {
	bm := c.pool.ReadU64(leaf + c.lay.offBitmap)
	var acts []leakAction
	for s := 0; s < c.lay.cap; s++ {
		if bm&(1<<s) != 0 {
			continue
		}
		pk := c.slotPKey(leaf, s)
		if pk.IsNull() {
			continue
		}
		shared := false
		for v := 0; v < c.lay.cap; v++ {
			if bm&(1<<v) != 0 && sameKeyBlock(c.slotPKey(leaf, v), pk) {
				shared = true
				break
			}
		}
		acts = append(acts, leakAction{slot: s, free: !shared})
	}
	return acts
}

// applyLeaks performs the repairs in slot order, matching the write sequence
// the pre-split reclaimLeaks emitted (a reset is a durable pointer null, a
// free goes through the slot's pointer cell, which also nulls it).
func (c *varCodec) applyLeaks(leaf uint64, acts []leakAction) {
	for _, a := range acts {
		if a.free {
			c.pool.Free(c.lay.pkeyOff(leaf, a.slot), c.slotKLen(leaf, a.slot))
		} else {
			c.pool.WritePPtr(c.lay.pkeyOff(leaf, a.slot), scm.PPtr{})
			c.pool.Persist(c.lay.pkeyOff(leaf, a.slot), scm.PPtrSize)
		}
	}
}

// scanLeaf reads the leaf image once, chases each valid slot's key pointer
// for the max-key comparison (the pointer dereferences are the latency that
// parallel recovery overlaps), and runs the scanLeaks detection on the
// buffered slot pointers.
func (c *varCodec) scanLeaf(leaf uint64) ([]byte, int, []leakAction) {
	buf := c.pool.ReadBytes(leaf, c.lay.size)
	bm := binary.LittleEndian.Uint64(buf[c.lay.offBitmap:])
	pk := func(s int) scm.PPtr {
		off := c.lay.pkeyOff(0, s)
		return scm.PPtr{
			ArenaID: binary.LittleEndian.Uint64(buf[off:]),
			Offset:  binary.LittleEndian.Uint64(buf[off+8:]),
		}
	}
	klen := func(s int) uint64 {
		return binary.LittleEndian.Uint64(buf[c.lay.klenOff(0, s):])
	}
	var maxK []byte
	n := 0
	var acts []leakAction
	for s := 0; s < c.lay.cap; s++ {
		if bm&(1<<s) != 0 {
			k := c.pool.ReadBytes(pk(s).Offset, klen(s))
			n++
			if n == 1 || bytes.Compare(maxK, k) < 0 {
				maxK = k
			}
			continue
		}
		p := pk(s)
		if p.IsNull() {
			continue
		}
		shared := false
		for v := 0; v < c.lay.cap; v++ {
			if bm&(1<<v) != 0 && sameKeyBlock(pk(v), p) {
				shared = true
				break
			}
		}
		acts = append(acts, leakAction{slot: s, free: !shared})
	}
	return maxK, n, acts
}

func (c *varCodec) checkInvalidSlot(leaf uint64, s int) error {
	if !c.slotPKey(leaf, s).IsNull() {
		return fmt.Errorf("leaf %#x slot %d: invalid slot owns a key pointer", leaf, s)
	}
	return nil
}

func (c *varCodec) ownerToken(leaf uint64, s int) (scm.PPtr, bool) {
	return c.slotPKey(leaf, s), true
}

func (c *varCodec) nextAfter(k []byte) ([]byte, bool) {
	next := make([]byte, len(k)+1)
	copy(next, k)
	return next, true
}

func (c *varCodec) keyDRAMBytes(k []byte) uint64 { return uint64(len(k)) + 24 }
