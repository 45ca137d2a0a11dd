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
// reads, bitmap commits, next-pointer chasing and the high key, plus
// exactPfx: whether codec.prefix is the whole key, so inner-node searches
// never break a prefix tie on the full key. The next pointer follows the
// bitmap, and the high key's highSize bytes at offHigh follow the next
// pointer, in one line.
type leafShape struct {
	cap       int
	hasFP     bool
	offBitmap uint64
	offNext   uint64
	offHigh   uint64
	highSize  uint64
	size      uint64
	exactPfx  bool
}

// maxHighSize bounds leafShape.highSize: a var key cell and its length.
const maxHighSize = cellSize

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
	// putHigh encodes k as a leaf's high key into dst, shape().highSize
	// bytes; a key the field cannot hold (a var key longer than a cell) is
	// encoded as "no high key". high decodes the field and reports false
	// for "no high key".
	putHigh(k K, dst []byte)
	high(src []byte) (K, bool)

	slotKey(leaf uint64, s int) K
	slotKeyEquals(leaf uint64, s int, k K) bool
	slotValue(leaf uint64, s int) V
	// leafPairs is the range reader's one read of a leaf: it appends the pairs
	// of the slots bm marks valid to dst, sorted by ascending key (leaves are
	// unsorted, Figure 2). It reads every line that holds part of a valid
	// slot's key or value, whether or not the caller keeps the pair, in slot
	// order, with one pool access per maximal run of them, clipped to the
	// slot array, so the header is never copied again. A split var slot's
	// tail (layout.go) is read after the heads, one access per value that
	// reaches into it.
	leafPairs(leaf, bm uint64, dst []kvPair[K, V]) []kvPair[K, V]

	// ownsBlock reports whether writeSlot stores k in a key block of its
	// own: the caller sets the tree's key-blocks word first.
	ownsBlock(k K) bool
	// writeSlot persists the key and value payload of a free slot. It does
	// NOT touch the fingerprint or bitmap — engine.commitSlot owns those.
	// from is -1 for a key new to the leaf; an out-of-place update passes
	// the slot that holds k now, and the var codec then copies a key block's
	// persistent pointer from it instead of re-allocating (Algorithm 16).
	writeSlot(leaf uint64, slot int, k K, v V, from int) error
	// updateInPlace overwrites the value of the valid slot s with v when
	// that is one p-atomic store: v's bytes lie in one aligned 8-byte word of
	// the slot, and nothing else of the slot changes. It persists that word
	// and reports true, or reports false and writes nothing.
	updateInPlace(leaf uint64, s int, v V) bool
	// afterUpdate runs after the bitmap commit of an out-of-place update of
	// k; the var codec nulls the old slot's key pointer so the key block
	// keeps exactly one owner.
	afterUpdate(leaf uint64, prev int, k K)
	// releaseSlotKey frees the storage slot holds for k after a delete's
	// bitmap flip.
	releaseSlotKey(leaf uint64, slot int, k K)
	// splitImage drops from img, a split's new leaf built in DRAM whose
	// bitmap is bm, the references the new leaf must not own (var: the key
	// pointers of the slots bm leaves out, which stay valid in the split
	// leaf), so the new leaf is written once.
	splitImage(img []byte, bm uint64)
	// afterSplitBitmaps restores per-slot ownership invariants of a split
	// leaf once its bitmap has dropped the slots the new leaf took (var:
	// null the invalid slots' key pointers).
	afterSplitBitmaps(leaf uint64)
	// scanLeaf is the recovery read of a leaf whose header alone does not
	// do (it may own key blocks, or stores no high key): the live max key,
	// the live count, and the repairs the Algorithm 17 leak scan calls for,
	// computed from one pass over the leaf's header and key cells, buffered
	// (the recovery scan visits every slot anyway, so per-slot accessors only
	// add overhead). The leaf is read into sb, the scanning worker's own
	// scratch, so a scan allocates nothing but the leak repairs it finds
	// and, for var keys, the max key it returns. It writes nothing to the
	// pool, so recovery workers run it in parallel; the engine applies the
	// repairs sequentially afterwards.
	scanLeaf(leaf uint64, sb *scanBuf) (K, int, []leakAction)
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
	return leafShape{cap: c.lay.cap, hasFP: c.lay.hasFP, offBitmap: c.lay.offBitmap,
		offNext: c.lay.offNext, offHigh: c.lay.offHigh, highSize: 8, size: c.lay.size, exactPfx: true}
}

func (c *fixedCodec) less(a, b uint64) bool     { return a < b }
func (c *fixedCodec) prefix(k uint64) uint64    { return k }
func (c *fixedCodec) fingerprint(k uint64) byte { return hash1(k) }
func (c *fixedCodec) validateKey(uint64) error  { return nil }

func (c *fixedCodec) putHigh(k uint64, dst []byte)   { binary.LittleEndian.PutUint64(dst, k) }
func (c *fixedCodec) high(src []byte) (uint64, bool) { return binary.LittleEndian.Uint64(src), true }

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

func (c *fixedCodec) ownsBlock(uint64) bool { return false }

func (c *fixedCodec) writeSlot(leaf uint64, slot int, k, v uint64, _ int) error {
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

// updateInPlace always succeeds: a fixed value is one aligned word, in the
// slot's line or, for PTree, in the value array.
func (c *fixedCodec) updateInPlace(leaf uint64, s int, v uint64) bool {
	c.pool.WriteU64(c.lay.valOff(leaf, s), v)
	c.pool.Persist(c.lay.valOff(leaf, s), 8)
	return true
}

func (c *fixedCodec) afterUpdate(uint64, int, uint64)    {}
func (c *fixedCodec) releaseSlotKey(uint64, int, uint64) {}
func (c *fixedCodec) splitImage([]byte, uint64)          {}
func (c *fixedCodec) afterSplitBitmaps(uint64)           {}
func (c *fixedCodec) applyLeaks(uint64, []leakAction)    {}
func (c *fixedCodec) checkInvalidSlot(uint64, int) error { return nil }

// scanBuf is a recovery worker's own scratch for scanLeaf, reused leaf after
// leaf: the leaf image (at least shape().size bytes), and the two buffers a
// var leaf's pointer keys are read into, one holding the max so far and one
// the candidate.
type scanBuf struct {
	leaf     []byte
	max, key []byte
}

// scanLeaf reads the whole leaf image into the worker's buffer once and folds
// the max-key scan over it; fixed keys have no leak repairs.
func (c *fixedCodec) scanLeaf(leaf uint64, sb *scanBuf) (uint64, int, []leakAction) {
	buf := sb.leaf[:c.lay.size]
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
	return leafShape{cap: c.lay.cap, hasFP: c.lay.hasFP, offBitmap: c.lay.offBitmap,
		offNext: c.lay.offNext, offHigh: c.lay.offHigh, highSize: cellSize, size: c.lay.size}
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

// putHigh encodes an inline key as its cell and length; a longer key, which
// the field cannot hold, as length 0, which no key has.
func (c *varCodec) putHigh(k []byte, dst []byte) {
	clear(dst)
	if len(k) <= inlineKeyMax {
		copy(dst, k)
		binary.LittleEndian.PutUint64(dst[scm.PPtrSize:], uint64(len(k)))
	}
}

func (c *varCodec) high(src []byte) ([]byte, bool) {
	h := parseKeyCell(src)
	if h.klen == 0 || !h.inline() {
		return nil, false
	}
	return bytes.Clone(h.inlineKey()), true
}

func (c *varCodec) ownsBlock(k []byte) bool { return len(k) > inlineKeyMax }

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

// slotValue returns the slot's value at the length it was stored with. The
// slot's head — the whole slot up to a line, else its head line — is read in
// one pool access, length word and value together, from the line the caller
// has just compared the key in (a 32-byte slot costs what reading its 8-byte
// value alone would). Only a value longer than the head holds reads its tail
// after.
func (c *varCodec) slotValue(leaf uint64, s int) []byte {
	var b [scm.LineSize]byte
	c.pool.ReadInto(c.lay.slotOff(leaf, s), b[:c.lay.headSize])
	v := make([]byte, parseKeyCell(b[:]).vlen)
	c.valueInto(leaf, s, b[:], v)
	return v
}

// valueInto fills v, the value of slot s, from the slot's head as read into
// head and, for a value longer than the head holds, from the slot's tail.
func (c *varCodec) valueInto(leaf uint64, s int, head, v []byte) {
	n, tail := c.lay.splitVal(uint64(len(v)))
	copy(v, head[cellSize:][:n])
	if tail > 0 {
		c.pool.ReadInto(c.lay.tailOff(leaf, s), v[n:])
	}
}

// leafPairs reads the valid slots' heads by runs into an on-stack image of
// the slot (or head) array, which a head of at most a line keeps within
// MaxLeafCap lines, and takes each pair from there, chasing a pointer key
// through its cell and reading a long value's tail into the pair behind the
// head's part. Each pair is one allocation, key then value. The pairs are
// sorted by bytes.Compare.
func (c *varCodec) leafPairs(leaf, bm uint64, dst []kvPair[[]byte, []byte]) []kvPair[[]byte, []byte] {
	var stack [MaxLeafCap * scm.LineSize]byte // byte i is the leaf's byte offKV+i
	stride := c.lay.headSize
	buf := stack[:uint64(c.lay.cap)*stride]
	readRuns(c.pool, leaf+c.lay.offKV, stride, stride, bm, buf)
	n0 := len(dst)
	for ; bm != 0; bm &= bm - 1 {
		s := bits.TrailingZeros64(bm)
		slot := buf[uint64(s)*stride:]
		h := parseKeyCell(slot)
		k, v := pairBytes(h.klen, h.vlen)
		c.cellKey(&h, k)
		c.valueInto(leaf, s, slot, v)
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
// the slot itself (stageInline), on an update too. A longer key moved by an
// update is not re-allocated: slot from's pointer is copied (Algorithm 16),
// the new value is staged beside it and the slot is persisted once; after the
// bitmap flip the key briefly has two owners, which afterUpdate repairs. A
// new longer key performs lines 12-18 of Algorithm 14 with each line flushed
// once: the length word and the value are
// staged and persisted together, then the allocator fills the key block with
// the key's bytes, makes it durable and durably publishes it in the slot's
// pointer cell (so a crash can never leak it, and a published pointer never
// refers to unwritten bytes). Alg. 14 persists the value after the
// allocation; staging it before is crash-equivalent, because the slot stays
// invisible until the bitmap commit and the only thing recovery reads from an
// invalid slot — the length the leak scan frees the key block by — is durable
// before the pointer is, as in the paper. The caller has made the tree's
// key-blocks word durable before (ownsBlock), so recovery's leak scan covers
// the leaf.
func (c *varCodec) writeSlot(leaf uint64, slot int, k, v []byte, from int) error {
	if len(k) <= inlineKeyMax {
		c.stageInline(leaf, slot, k, v)
		return nil
	}
	c.nullStaleInlineCell(leaf, slot)
	n := c.stageValue(leaf, slot, len(k), v)
	if from >= 0 {
		c.pool.WritePPtr(c.lay.pkeyOff(leaf, slot), c.pool.ReadPPtr(c.lay.pkeyOff(leaf, from)))
		c.pool.Persist(c.lay.slotOff(leaf, slot), cellSize+n)
		return nil
	}
	c.pool.Persist(c.lay.klenOff(leaf, slot), 8+n)
	_, err := c.pool.AllocInit(c.lay.pkeyOff(leaf, slot), uint64(len(k)), k)
	return err
}

// stageInline writes an inline key, the length word and the value into a free
// slot and persists them together, through the value's last byte in the
// slot's head: one flush for a slot, or a value, that ends in the line the
// slot starts in (a split slot's tail goes in a persist of its own, see
// stageValue). The exception is a slot that last held a pointer key. Its
// durable klen still has pointer length, and a torn crash may keep any
// word-prefix of a dirty line (and, where the slot straddles, of each line
// independently), so writing the cell beside it could leave key bytes under a
// pointer-length klen. There the new klen is made durable first and the cell
// follows — one extra persist, paid only when a slot changes representation.
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
	n := c.stageValue(leaf, slot, len(k), v)
	c.pool.WriteBytes(off, cell[:])
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
// field's valSize bytes) and returns how many of the value's bytes lie in the
// slot's head: the caller's persist of the head ends there. A value longer
// than the head holds has its tail written and persisted first, in a persist
// of its own, before anything of the head is written, so no persist of a
// slot leaves another of its lines dirty. Nothing is written behind the
// value. Whatever an earlier, longer value left in the rest of the field is
// unreachable, because every read is bounded by the vlen staged here, and the
// bitmap commit that makes the slot visible comes after the persists that
// cover both.
func (c *varCodec) stageValue(leaf uint64, slot int, klen int, value []byte) uint64 {
	if len(value) > c.valSize {
		value = value[:c.valSize]
	}
	head, tail := c.lay.splitVal(uint64(len(value)))
	if tail > 0 {
		c.pool.WriteBytes(c.lay.tailOff(leaf, slot), value[head:])
		c.pool.Persist(c.lay.tailOff(leaf, slot), tail)
	}
	c.pool.WriteU64(c.lay.klenOff(leaf, slot), lenWord(klen, len(value)))
	c.pool.WriteBytes(c.lay.valOff(leaf, slot), value[:head])
	return head
}

// updateInPlace stores v (truncated to the field, as stageValue does) over
// slot s's value when it has the length the slot's length word records, so
// the word is not rewritten, and its bytes lie in one aligned word, which the
// slot's layout decides: the 8-byte-aligned field of a 32- or 40-byte slot or
// of a split slot's head line holds any value of at most 8 bytes in its
// first word. Exactly len(v) bytes are written, so a field narrower than a
// word never spills into the next slot, and an empty value writes nothing.
// The key cell, pointer key or inline, is not touched.
func (c *varCodec) updateInPlace(leaf uint64, s int, v []byte) bool {
	v = v[:min(len(v), c.valSize)]
	off, n := c.lay.valOff(leaf, s), uint64(len(v))
	if (n > 0 && off/8 != (off+n-1)/8) || c.pool.ReadU64(c.lay.klenOff(leaf, s))>>32 != n {
		return false
	}
	if n > 0 {
		c.pool.WriteBytes(off, v)
		c.pool.Persist(off, n)
	}
	return true
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

// splitImage nulls, in the new leaf's image, the key pointers of the slots
// the split leaf keeps, so every key block has exactly one owning reference
// from the moment the new leaf is durable — otherwise the Algorithm 17 leak
// scan could reclaim a key still referenced by the sibling leaf. Inline slots
// are left as they are: the copy is a copy of bytes, not a second reference.
func (c *varCodec) splitImage(img []byte, bm uint64) {
	for s := 0; s < c.lay.cap; s++ {
		if bm&(1<<s) != 0 {
			continue
		}
		cell := img[c.lay.pkeyOff(0, s):]
		if h := parseKeyCell(cell); h.ownsBlock() {
			clear(cell[:scm.PPtrSize])
		}
	}
}

// afterSplitBitmaps nulls the split leaf's invalid key pointers: the slots
// the new leaf took over, which now own their key blocks there.
//
// It writes every null first and then persists the slot array once — the
// lines of the leaf are flushed once each, not once per moved slot. The nulls
// are independent of each other and recovery redoes the whole pass from the
// split micro-log, so which of them a crash keeps is immaterial. Inline slots
// are left as they are.
func (c *varCodec) afterSplitBitmaps(leaf uint64) {
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
// of each slot the key cell and length word. The cells lie on every line of
// the slot array, or of a split slot's head array, so the header and that
// array are read in one access into sb.leaf, the worker's buffer; a split
// slot's tails, which hold nothing but value bytes — 77 lines of kvserver's
// 8640-byte leaf, which the scan reads 58 lines of — are never touched.
// Inline keys are compared where they lie in the buffered cells; each valid
// pointer slot's key block is read into sb.key for the max-key comparison
// (the dereferences are the latency that parallel recovery overlaps), and
// swapped into sb.max when it is the new max. Leak detection is
// Algorithm 17 over the buffered cells: an invalid slot that
// still references a key block either shares it with a valid slot of the same
// leaf (crashed update: reset the pointer) or owns it alone (crashed insert or
// delete: deallocate the key). Invalid inline slots own nothing and are
// skipped.
func (c *varCodec) scanLeaf(leaf uint64, sb *scanBuf) ([]byte, int, []leakAction) {
	hdr := sb.leaf[:c.lay.offTail]
	c.pool.ReadInto(leaf, hdr)
	bm := binary.LittleEndian.Uint64(hdr[c.lay.offBitmap:])
	at := func(s int) []byte { return hdr[c.lay.slotOff(0, s):] } // slot s's cell|word

	// maxK aliases the buffered cells or sb.max.
	var maxK []byte
	n := 0
	var acts []leakAction
	for s := 0; s < c.lay.cap; s++ {
		h := parseKeyCell(at(s))
		if bm&(1<<s) != 0 {
			var k []byte
			if h.inline() {
				k = at(s)[:h.klen]
			} else {
				sb.key = slices.Grow(sb.key[:0], int(h.klen))[:h.klen]
				c.pool.ReadInto(h.pkey().Offset, sb.key)
				k = sb.key
			}
			n++
			if n == 1 || bytes.Compare(maxK, k) < 0 {
				maxK = k
				if !h.inline() {
					sb.max, sb.key = sb.key, sb.max
				}
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
	// The separator must not pin the worker's scratch.
	return bytes.Clone(maxK), n, acts
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
