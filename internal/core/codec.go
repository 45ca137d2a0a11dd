package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"fptree/internal/scm"
)

// leafShape is the codec-independent geometry the engine needs for header
// reads, bitmap commits and next-pointer chasing, plus exactPfx: whether
// codec.prefix is the whole key, so inner-node searches never break a prefix
// tie on the full key.
type leafShape struct {
	cap       int
	hasFP     bool
	offBitmap uint64
	offNext   uint64
	size      uint64
	exactPfx  bool
}

// codec owns everything that depends on the key representation: the leaf slot
// layout, fingerprints, comparisons, slot read/write/persist, and the
// key-ownership bookkeeping that only variable-size keys need (Appendix C).
// The engine never touches a slot except through this interface.
//
// Fixed codec: inline u64 key + u64 value per slot, nothing to allocate or
// leak. Var codec: each slot holds a 16-byte key cell, the length word (key
// and value length) and an inline value, read, written and flushed only as
// far as the value's own bytes reach. A key that fits the cell lives in it
// and costs what a fixed key costs; a longer key lives in a separately
// allocated key block the cell points to, so insert/update/delete/split all
// have extra ownership steps (the no-op methods below on the fixed codec, and
// on inline slots).
type codec[K, V any] interface {
	shape() leafShape
	less(a, b K) bool
	// prefix maps k to an order-preserving word: prefix(a) < prefix(b)
	// implies less(a, b). Inner nodes keep it beside each separator.
	prefix(k K) uint64
	fingerprint(k K) byte
	// validateKey rejects keys the codec cannot store (empty var keys).
	validateKey(k K) error

	slotKey(leaf uint64, s int) K
	slotKeyEquals(leaf uint64, s int, k K) bool
	slotValue(leaf uint64, s int) V
	// leafPairs is the range reader's one read of a leaf: it appends the pairs
	// of the slots bm marks valid to dst, sorted by ascending key (leaves are
	// unsorted, Figure 2). It reads every line that holds part of a valid
	// slot's key or value, whether or not the caller keeps the pair, in slot
	// order, with one pool access per maximal run of them, clipped to the
	// slot array, so the header is never copied again.
	leafPairs(leaf, bm uint64, dst []kvPair[K, V]) []kvPair[K, V]

	// writeSlot persists the key and value payload of a free slot. It does
	// NOT touch the fingerprint or bitmap — engine.commitSlot owns those.
	writeSlot(leaf uint64, slot int, k K, v V) error
	// moveSlot restages an existing slot's key k with a new value into a free
	// slot (update path). The var codec copies a key block's persistent
	// pointer instead of re-allocating (Algorithm 16).
	moveSlot(leaf uint64, slot, prev int, k K, v V)
	// afterUpdate runs after the bitmap commit of an update of k; the var
	// codec nulls the old slot's key pointer so the key block keeps exactly
	// one owner.
	afterUpdate(leaf uint64, prev int, k K)
	// releaseSlotKey frees the storage slot holds for k after a delete's
	// bitmap flip.
	releaseSlotKey(leaf uint64, slot int, k K)
	// afterSplitBitmaps restores per-slot ownership invariants once the two
	// halves' complementary bitmaps are durable (var: null the invalid
	// slots' key pointers in both halves).
	afterSplitBitmaps(leaf, newLeaf uint64)
	// scanLeaf is the one-stop per-leaf recovery read: the live max key, the
	// live count, and the repairs the Algorithm 17 leak scan calls for,
	// computed from one pass over the leaf's header and key cells, buffered
	// (the recovery scan visits every slot anyway, so per-slot accessors only
	// add overhead). The leaf is read into buf, the scanning worker's own
	// buffer of at least shape().size bytes, so a scan allocates nothing
	// but the leak repairs it finds and, for var keys, the max key and each
	// key block it dereferences. It writes nothing to the pool, so recovery
	// workers run it in parallel; the engine applies the repairs
	// sequentially afterwards.
	scanLeaf(leaf uint64, buf []byte) (K, int, []leakAction)
	// applyLeaks performs the durable repairs scanLeaf detected, in slot
	// order.
	applyLeaks(leaf uint64, acts []leakAction)

	// checkInvalidSlot / ownerToken support CheckInvariants: codec-specific
	// invariants of invalid slots, and a token identifying shared key
	// storage (each token must have exactly one owning slot).
	checkInvalidSlot(leaf uint64, s int) error
	ownerToken(leaf uint64, s int) (scm.PPtr, bool)

	// nextAfter returns the smallest key greater than k, or ok=false when no
	// such key exists (fixed u64 overflow). Range reads use it to step past
	// a separator upper bound or the last key they handed out.
	nextAfter(k K) (K, bool)
	// edge maps an iterator window edge onto a bound: the zero key (0, or a
	// nil or empty byte string, which is not a legal key) means unbounded.
	// A zero fixed start covers every key either way; a zero exclusive end
	// would exclude every key, so the zero value is free to mean "no bound".
	edge(k K) bound[K]
	// keyDRAMBytes estimates the DRAM cost of holding k in an inner node.
	keyDRAMBytes(k K) uint64
}

// readRuns copies into img, whose byte i is the arena's byte base+i, the lines
// of that range which hold part of a valid slot: slot s, valid when bm has bit
// s, spans [base+s*stride, base+s*stride+width). Each maximal run of
// consecutive such lines is one pool access, clipped to the range; bytes
// outside the runs are left as they were.
func readRuns(pool *scm.Pool, base, stride, width, bm uint64, img []byte) {
	end := base + uint64(len(img))
	read := func(first, last uint64) { // lines first..last
		from, to := max(first*scm.LineSize, base), min((last+1)*scm.LineSize, end)
		pool.ReadInto(from, img[from-base:to-base])
	}
	var first, last uint64
	open := false
	for ; bm != 0; bm &= bm - 1 {
		a := base + uint64(bits.TrailingZeros64(bm))*stride
		lo, hi := a/scm.LineSize, (a+width-1)/scm.LineSize
		if open && lo <= last+1 {
			last = hi
			continue
		}
		if open {
			read(first, last)
		}
		first, last, open = lo, hi, true
	}
	if open {
		read(first, last)
	}
}

// keyKindOf is the key kind the meta block records for K: uint64 keys are
// fixed-size, every other key type ([]byte) variable-size.
func keyKindOf[K any]() uint64 {
	if _, fixed := any(*new(K)).(uint64); fixed {
		return keyKindFixed
	}
	return keyKindVar
}

// newCodec picks the codec from K, as keycell.For does for the baselines.
func newCodec[K, V any](pool *scm.Pool, cfg Config) codec[K, V] {
	if keyKindOf[K]() == keyKindFixed {
		return any(newFixedCodec(pool, cfg)).(codec[K, V])
	}
	return any(newVarCodec(pool, cfg)).(codec[K, V])
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
	return leafShape{cap: c.lay.cap, hasFP: c.lay.hasFP, offBitmap: c.lay.offBitmap, offNext: c.lay.offNext, size: c.lay.size, exactPfx: true}
}

func (c *fixedCodec) less(a, b uint64) bool     { return a < b }
func (c *fixedCodec) prefix(k uint64) uint64    { return k }
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

// leafPairs decodes the valid pairs from an on-stack image of the slot array —
// of the key array and then the value array, for PTree — and insertion-sorts
// them: a leaf holds at most 64 pairs, few enough that a monomorphic sort on
// the uint64 keys beats any generic one.
func (c *fixedCodec) leafPairs(leaf, bm uint64, dst []kvPair[uint64, uint64]) []kvPair[uint64, uint64] {
	var buf [MaxLeafCap * 16]byte // byte i is the leaf's byte offKV+i
	base, n := leaf+c.lay.offKV, uint64(c.lay.cap)*8
	if c.lay.hasFP {
		readRuns(c.pool, base, 16, 16, bm, buf[:2*n])
	} else {
		readRuns(c.pool, base, 8, 8, bm, buf[:n])
		readRuns(c.pool, base+n, 8, 8, bm, buf[n:2*n])
	}
	n0 := len(dst)
	for ; bm != 0; bm &= bm - 1 {
		s := bits.TrailingZeros64(bm)
		dst = append(dst, kvPair[uint64, uint64]{
			binary.LittleEndian.Uint64(buf[c.lay.keyOff(0, s)-c.lay.offKV:]),
			binary.LittleEndian.Uint64(buf[c.lay.valOff(0, s)-c.lay.offKV:]),
		})
	}
	for i := n0 + 1; i < len(dst); i++ {
		p, j := dst[i], i
		for ; j > n0 && dst[j-1].k > p.k; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = p
	}
	return dst
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

func (c *fixedCodec) afterUpdate(uint64, int, uint64)    {}
func (c *fixedCodec) releaseSlotKey(uint64, int, uint64) {}
func (c *fixedCodec) afterSplitBitmaps(uint64, uint64)   {}
func (c *fixedCodec) applyLeaks(uint64, []leakAction)    {}
func (c *fixedCodec) checkInvalidSlot(uint64, int) error { return nil }

// scanLeaf reads the whole leaf image into buf once and folds the max-key
// scan over it; fixed keys have no leak repairs.
func (c *fixedCodec) scanLeaf(leaf uint64, buf []byte) (uint64, int, []leakAction) {
	buf = buf[:c.lay.size]
	c.pool.ReadInto(leaf, buf)
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

func (c *fixedCodec) edge(k uint64) bound[uint64] { return bound[uint64]{key: k, ok: k != 0} }

func (c *fixedCodec) keyDRAMBytes(uint64) uint64 { return 8 }

// --- variable-size keys ------------------------------------------------------

// inlineKeyMax is the longest key that lives in the slot itself. A slot's
// 16-byte key cell holds either the key's bytes, zero-padded (klen <=
// inlineKeyMax), or the persistent pointer to a separately allocated key
// block (klen > inlineKeyMax, Appendix C). klen is the only discriminator, so
// the write paths below never let a crash pair a pointer-length klen with
// inline bytes in the cell: recovery would free whatever those bytes point at.
const inlineKeyMax = scm.PPtrSize

// cellSize is a slot's key cell plus its length word: what every reader of a
// key, and the whole of recovery, needs of a slot.
const cellSize = scm.PPtrSize + 8

// keyCell is a slot's key cell and length word as read from SCM: cellSize
// contiguous bytes, one pool access. The length word is klen in its low half
// and vlen, the length of the value stored behind it, in its high half: one
// aligned word, so the two tear as a unit and every rule stated for a durable
// klen holds for the word's low half.
type keyCell struct {
	raw  [scm.PPtrSize]byte
	klen uint64
	vlen uint64
}

func parseKeyCell(b []byte) (h keyCell) {
	copy(h.raw[:], b)
	w := binary.LittleEndian.Uint64(b[scm.PPtrSize:])
	h.klen, h.vlen = uint64(uint32(w)), w>>32
	return h
}

// lenWord packs the length word parseKeyCell decodes.
func lenWord(klen, vlen int) uint64 { return uint64(klen) | uint64(vlen)<<32 }

func (h *keyCell) inline() bool { return h.klen <= inlineKeyMax }

// inlineKey returns the key bytes of an inline cell (aliasing h).
func (h *keyCell) inlineKey() []byte { return h.raw[:h.klen] }

// pkey decodes the cell of a pointer slot.
func (h *keyCell) pkey() scm.PPtr {
	return scm.PPtr{
		ArenaID: binary.LittleEndian.Uint64(h.raw[:]),
		Offset:  binary.LittleEndian.Uint64(h.raw[8:]),
	}
}

// ownsBlock reports whether the cell references a key block: a pointer slot
// whose pointer is not null.
func (h *keyCell) ownsBlock() bool { return !h.inline() && !h.pkey().IsNull() }

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

// prefix is the key's first 8 bytes, big-endian and zero-padded: a shorter
// key ties with its zero-extensions ("ab" and "ab\x00"), and keys sharing
// 8 bytes tie, so the prefix is not exact.
func (c *varCodec) prefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var b [8]byte
	copy(b[:], k)
	return binary.BigEndian.Uint64(b[:])
}

func (c *varCodec) validateKey(k []byte) error {
	if len(k) == 0 {
		return fmt.Errorf("fptree: empty key")
	}
	if uint64(len(k)) > math.MaxUint32 {
		return fmt.Errorf("fptree: key of %d bytes exceeds the slot's 32-bit key length", len(k))
	}
	return nil
}

func (c *varCodec) slotCell(leaf uint64, s int) keyCell {
	var b [cellSize]byte
	c.pool.ReadInto(c.lay.slotOff(leaf, s), b[:])
	return parseKeyCell(b[:])
}

// slotKey returns the slot's key: out of the slot line for an inline key,
// through the key pointer otherwise — the extra SCM cache miss that makes
// fingerprints so valuable for string keys.
func (c *varCodec) slotKey(leaf uint64, s int) []byte {
	h := c.slotCell(leaf, s)
	k := make([]byte, h.klen)
	c.cellKey(&h, k)
	return k
}

func (c *varCodec) slotKeyEquals(leaf uint64, s int, k []byte) bool {
	h := c.slotCell(leaf, s)
	if h.klen != uint64(len(k)) {
		return false
	}
	if h.inline() {
		return string(h.inlineKey()) == string(k)
	}
	return c.pool.EqualBytes(h.pkey().Offset, k)
}

// slotValue returns the slot's value at the length it was stored with. A slot
// no larger than a line is read whole, length word and value in one pool
// access (a 32-byte slot costs what reading its 8-byte value alone would);
// a larger one is read as far as vlen says, after the length word, which
// shares its line(s) with the key the caller has just compared.
func (c *varCodec) slotValue(leaf uint64, s int) []byte {
	if c.lay.slotSize <= scm.LineSize {
		var b [scm.LineSize]byte
		c.pool.ReadInto(c.lay.slotOff(leaf, s), b[:c.lay.slotSize])
		h := parseKeyCell(b[:])
		return bytes.Clone(b[cellSize:][:h.vlen])
	}
	h := c.slotCell(leaf, s)
	return c.pool.ReadBytes(c.lay.valOff(leaf, s), h.vlen)
}

// leafPairs reads the valid slots by runs into an image of the slot array and
// takes each pair from there, chasing a pointer key through its cell. The
// image is on the stack unless the slot array outgrows MaxLeafCap lines,
// which only slots larger than a line can make it do (kvserver's 56 slots of
// 152 bytes); then it is allocated. Each pair is one allocation, key then
// value. The pairs are sorted by bytes.Compare.
func (c *varCodec) leafPairs(leaf, bm uint64, dst []kvPair[[]byte, []byte]) []kvPair[[]byte, []byte] {
	var stack [MaxLeafCap * scm.LineSize]byte // byte i is the leaf's byte offKV+i
	stride, n := c.lay.slotSize, uint64(c.lay.cap)*c.lay.slotSize
	buf := stack[:]
	if n > uint64(len(buf)) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	readRuns(c.pool, leaf+c.lay.offKV, stride, stride, bm, buf)
	n0 := len(dst)
	for ; bm != 0; bm &= bm - 1 {
		slot := buf[uint64(bits.TrailingZeros64(bm))*stride:]
		h := parseKeyCell(slot)
		k, v := pairBytes(h.klen, h.vlen)
		c.cellKey(&h, k)
		copy(v, slot[cellSize:])
		dst = append(dst, kvPair[[]byte, []byte]{k, v})
	}
	slices.SortFunc(dst[n0:], func(a, b kvPair[[]byte, []byte]) int { return bytes.Compare(a.k, b.k) })
	return dst
}

// cellKey copies the key h stands for into k, which is h.klen bytes long: out
// of the cell, or through the key pointer.
func (c *varCodec) cellKey(h *keyCell, k []byte) {
	if h.inline() {
		copy(k, h.raw[:])
		return
	}
	c.pool.ReadInto(h.pkey().Offset, k)
}

// pairBytes allocates a pair's key and value together, one allocation where
// two clones would cost two. The key is capped, so appending to it cannot run
// into the value.
func pairBytes(klen, vlen uint64) (k, v []byte) {
	b := make([]byte, klen+vlen)
	return b[:klen:klen], b[klen:]
}

// writeSlot stages a free slot. A key of at most inlineKeyMax bytes goes into
// the slot itself (stageInline). A longer key performs lines 12-18 of
// Algorithm 14 with each line flushed once: the length word and the value are
// staged and persisted together, then the allocator fills the key block with
// the key's bytes, makes it durable and durably publishes it in the slot's
// pointer cell (so a crash can never leak it, and a published pointer never
// refers to unwritten bytes). Alg. 14 persists the value after the
// allocation; staging it before is crash-equivalent, because the slot stays
// invisible until the bitmap commit and the only thing recovery reads from an
// invalid slot — the length the leak scan frees the key block by — is durable
// before the pointer is, as in the paper.
func (c *varCodec) writeSlot(leaf uint64, slot int, k, v []byte) error {
	if len(k) <= inlineKeyMax {
		c.stageInline(leaf, slot, k, v)
		return nil
	}
	c.nullStaleInlineCell(leaf, slot)
	n := c.stageValue(leaf, slot, len(k), v)
	c.pool.Persist(c.lay.klenOff(leaf, slot), 8+n)
	_, err := c.pool.AllocInit(c.lay.pkeyOff(leaf, slot), uint64(len(k)), k)
	return err
}

// stageInline writes an inline key, the length word and the value into a free
// slot and persists them together, through the value's last byte: one flush
// for a slot, or a value, that ends in the line the slot starts in. The
// exception is a slot that last held a pointer key. Its durable klen still has
// pointer length, and a torn crash may keep any word-prefix of a dirty line
// (and, where the slot straddles, of each line independently), so writing the
// cell beside it could leave key bytes under a pointer-length klen. There the
// new klen is made durable first and the cell follows — one extra persist,
// paid only when a slot changes representation.
func (c *varCodec) stageInline(leaf uint64, slot int, k, v []byte) {
	var cell [inlineKeyMax]byte
	copy(cell[:], k)
	off := c.lay.slotOff(leaf, slot)
	if h := c.slotCell(leaf, slot); !h.inline() {
		n := c.stageValue(leaf, slot, len(k), v)
		c.pool.Persist(c.lay.klenOff(leaf, slot), 8+n)
		c.pool.WriteBytes(off, cell[:])
		c.pool.Persist(off, inlineKeyMax)
		return
	}
	c.pool.WriteBytes(off, cell[:])
	n := c.stageValue(leaf, slot, len(k), v)
	c.pool.Persist(off, cellSize+n)
}

// nullStaleInlineCell prepares a free slot for a pointer key: if the slot
// last held an inline key, its cell still carries those bytes, and they must
// be gone durably before a pointer-length klen may become durable beside
// them. While the old inline klen stands, recovery ignores the cell, so the
// null itself can tear freely. Never-used and pointer slots already hold a
// null cell and cost nothing.
func (c *varCodec) nullStaleInlineCell(leaf uint64, slot int) {
	if h := c.slotCell(leaf, slot); h.inline() && h.raw != [scm.PPtrSize]byte{} {
		c.pool.WritePPtr(c.lay.pkeyOff(leaf, slot), scm.PPtr{})
		c.pool.Persist(c.lay.pkeyOff(leaf, slot), scm.PPtrSize)
	}
}

// stageValue stores the slot's length word and value (truncated to the value
// field's valSize bytes) without persisting them, and returns the value's
// stored length: the caller's persist ends there. Nothing is written behind
// the value. Whatever an earlier, longer value left in the rest of the field
// is unreachable, because every read is bounded by the vlen staged here, and
// the bitmap commit that makes the slot visible comes after the persist that
// covers both.
func (c *varCodec) stageValue(leaf uint64, slot int, klen int, value []byte) uint64 {
	if len(value) > c.valSize {
		value = value[:c.valSize]
	}
	c.pool.WriteU64(c.lay.klenOff(leaf, slot), lenWord(klen, len(value)))
	c.pool.WriteBytes(c.lay.valOff(leaf, slot), value)
	return uint64(len(value))
}

// moveSlot restages the key of slot prev, which is k, beside a new value. An
// inline key is simply written again. A pointer key is not re-allocated: the
// previous slot's pointer and length are copied (Algorithm 16), the new value
// is staged beside them and the slot is persisted once; after the bitmap flip
// the key briefly has two owners, which afterUpdate repairs.
func (c *varCodec) moveSlot(leaf uint64, slot, prev int, k, v []byte) {
	if len(k) <= inlineKeyMax {
		c.stageInline(leaf, slot, k, v)
		return
	}
	c.nullStaleInlineCell(leaf, slot)
	c.pool.WritePPtr(c.lay.pkeyOff(leaf, slot), c.pool.ReadPPtr(c.lay.pkeyOff(leaf, prev)))
	n := c.stageValue(leaf, slot, len(k), v)
	c.pool.Persist(c.lay.slotOff(leaf, slot), cellSize+n)
}

// afterUpdate resets the old slot's reference so a key block has exactly one
// owner again (Algorithm 16, line 16). An inline key has no block to share.
func (c *varCodec) afterUpdate(leaf uint64, prev int, k []byte) {
	if len(k) <= inlineKeyMax {
		return
	}
	c.pool.WritePPtr(c.lay.pkeyOff(leaf, prev), scm.PPtr{})
	c.pool.Persist(c.lay.pkeyOff(leaf, prev), scm.PPtrSize)
}

// releaseSlotKey deallocates k's key block through the slot's pointer cell
// (which nulls it durably). An inline key dies with the bitmap flip.
func (c *varCodec) releaseSlotKey(leaf uint64, slot int, k []byte) {
	if len(k) <= inlineKeyMax {
		return
	}
	c.pool.Free(c.lay.pkeyOff(leaf, slot), uint64(len(k)))
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
// Inline slots are left as they are: the copy in the other half is a copy of
// bytes, not a second reference.
func (c *varCodec) resetInvalidPKeys(leaf uint64) {
	bm := c.pool.ReadU64(leaf + c.lay.offBitmap)
	first, end := uint64(0), uint64(0) // the nulled cells span [first, end)
	for s := 0; s < c.lay.cap; s++ {
		if bm&(1<<s) != 0 {
			continue
		}
		if h := c.slotCell(leaf, s); !h.ownsBlock() {
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

// applyLeaks performs the repairs in slot order, matching the write sequence
// the pre-split reclaimLeaks emitted (a reset is a durable pointer null, a
// free goes through the slot's pointer cell, which also nulls it).
func (c *varCodec) applyLeaks(leaf uint64, acts []leakAction) {
	for _, a := range acts {
		if a.free {
			c.pool.Free(c.lay.pkeyOff(leaf, a.slot), c.slotCell(leaf, a.slot).klen)
		} else {
			c.pool.WritePPtr(c.lay.pkeyOff(leaf, a.slot), scm.PPtr{})
			c.pool.Persist(c.lay.pkeyOff(leaf, a.slot), scm.PPtrSize)
		}
	}
}

// scanLeaf reads what recovery needs of a leaf and no more: the header, and
// of each slot the key cell and length word — never a value. Where a slot is
// no larger than a line those cells lie on every line of the slot array, so
// the leaf is read in one access; where it is larger (kvserver's 152-byte
// slot) the header and then each slot's cell are read on their own, and the
// lines that hold only value bytes — 64 of an 8640-byte leaf's 135 — are never
// touched. Either way the header and cells land in buf, the worker's buffer
// (the wide slot's cells packed cellSize apart after the header). Inline keys
// are compared where they lie in the buffered cells; each valid pointer
// slot's key block is chased for the max-key comparison (the dereferences are
// the latency that parallel recovery overlaps). Leak detection is
// Algorithm 17 over the buffered cells: an invalid slot that
// still references a key block either shares it with a valid slot of the same
// leaf (crashed update: reset the pointer) or owns it alone (crashed insert or
// delete: deallocate the key). Invalid inline slots own nothing and are
// skipped.
func (c *varCodec) scanLeaf(leaf uint64, buf []byte) ([]byte, int, []leakAction) {
	var hdr, cells []byte // slot s's cell starts at cells[s*stride]
	stride := c.lay.slotSize
	if stride <= scm.LineSize {
		hdr = buf[:c.lay.size]
		c.pool.ReadInto(leaf, hdr)
		cells = hdr[c.lay.offKV:]
	} else {
		hdr = buf[:c.lay.offKV]
		c.pool.ReadInto(leaf, hdr)
		stride = cellSize
		cells = buf[c.lay.offKV:][:uint64(c.lay.cap)*stride]
		for s := 0; s < c.lay.cap; s++ {
			c.pool.ReadInto(c.lay.slotOff(leaf, s), cells[uint64(s)*stride:][:cellSize])
		}
	}
	bm := binary.LittleEndian.Uint64(hdr[c.lay.offBitmap:])
	at := func(s int) []byte { return cells[uint64(s)*stride:] } // slot s's cell|word
	var maxK []byte
	maxInline := false // maxK aliases cells
	n := 0
	var acts []leakAction
	for s := 0; s < c.lay.cap; s++ {
		h := parseKeyCell(at(s))
		if bm&(1<<s) != 0 {
			var k []byte
			if h.inline() {
				k = at(s)[:h.klen]
			} else {
				k = c.pool.ReadBytes(h.pkey().Offset, h.klen)
			}
			n++
			if n == 1 || bytes.Compare(maxK, k) < 0 {
				maxK, maxInline = k, h.inline()
			}
			continue
		}
		if !h.ownsBlock() {
			continue
		}
		shared := false
		for v := 0; v < c.lay.cap && !shared; v++ {
			if bm&(1<<v) != 0 {
				hv := parseKeyCell(at(v))
				shared = !hv.inline() && sameKeyBlock(hv.pkey(), h.pkey())
			}
		}
		acts = append(acts, leakAction{slot: s, free: !shared})
	}
	if maxInline {
		maxK = bytes.Clone(maxK) // the separator must not pin the buffered cells
	}
	return maxK, n, acts
}

func (c *varCodec) checkInvalidSlot(leaf uint64, s int) error {
	if h := c.slotCell(leaf, s); h.ownsBlock() {
		return fmt.Errorf("leaf %#x slot %d: invalid slot owns a key pointer", leaf, s)
	}
	return nil
}

func (c *varCodec) ownerToken(leaf uint64, s int) (scm.PPtr, bool) {
	h := c.slotCell(leaf, s)
	return h.pkey(), !h.inline()
}

func (c *varCodec) nextAfter(k []byte) ([]byte, bool) {
	next := make([]byte, len(k)+1)
	copy(next, k)
	return next, true
}

// edge clones the key: the iterator outlives the call and the caller keeps
// ownership of its slice.
func (c *varCodec) edge(k []byte) bound[[]byte] {
	if len(k) == 0 {
		return bound[[]byte]{}
	}
	return bound[[]byte]{key: slices.Clone(k), ok: true}
}

func (c *varCodec) keyDRAMBytes(k []byte) uint64 { return uint64(len(k)) + 24 }
