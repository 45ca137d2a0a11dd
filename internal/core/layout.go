// Package core implements the Fingerprinting Persistent Tree (FPTree) of
// Oukid et al., SIGMOD 2016: a hybrid SCM-DRAM B+-Tree whose leaf nodes live
// in (emulated) SCM and whose inner nodes live in DRAM and are rebuilt on
// recovery.
//
// The paper evaluates four tree variants — the single-threaded fixed-key
// FPTree (with amortized leaf-group allocations), the concurrent fixed-key
// FPTree (Selective Concurrency), and the variable-size-key versions of both.
// Here all four are one generic engine (engine.go) parameterized along two
// axes: a key codec (codec.go — fixed 8-byte keys inline in the leaf, or
// variable-size keys, in the slot up to 16 bytes and behind persistent
// key-block pointers per Appendix C beyond that)
// and a concurrency controller (concurrency.go — single-threaded, or
// version-lock optimistic descent with fine-grained leaf locks). The one
// exported type, Index[K, V] (index.go), takes the codec from its key type
// and the controller from its constructor; Tree, CTree, VarTree and CVarTree
// are aliases of its two instances.
//
// Recovery (Open/COpen/OpenVar/COpenVar) replays the allocator intent and
// the split/delete micro-logs, then rebuilds the DRAM inner nodes from one
// walk of the persistent leaf list whose leaves are scanned on
// RecoveryOptions.Workers goroutines (recovery.go); the recovered arena is
// byte-identical for every worker count. See RECOVERY.md at the repository
// root for the pipeline end to end.
//
// All persistent state is kept inside an scm.Pool and accessed through
// explicit offset codecs, so layouts are exactly the paper's and the Go
// garbage collector never touches SCM-resident data.
package core

import (
	"errors"
	"fmt"

	"fptree/internal/scm"
)

// MaxLeafCap is the largest number of entries per leaf. The in-leaf bitmap is
// a single 8-byte word so that validity updates are p-atomic, which caps the
// capacity at 64.
const MaxLeafCap = 64

// Errors shared by all tree variants.
var ErrClosed = errors.New("fptree: tree is closed")

// Variant selects between the paper's single-threaded persistent trees that
// share this package's leaf machinery.
type Variant int

const (
	// VariantFPTree is the full design: fingerprints + interleaved KV slots.
	VariantFPTree Variant = iota
	// VariantPTree is the light version (Section 5, variant 3): selective
	// persistence and unsorted leaves only — no fingerprints, and keys and
	// values in separate arrays for better locality during the linear key
	// scan.
	VariantPTree
)

// Config carries the tunables Table 1 of the paper sweeps.
type Config struct {
	// Variant selects FPTree (default) or the fingerprint-less PTree.
	Variant Variant
	// LeafCap is the number of entries per leaf (m). Must be in [2,64].
	LeafCap int
	// InnerFanout is the maximum number of keys per DRAM inner node.
	InnerFanout int
	// GroupSize enables amortized persistent allocations: leaves are carved
	// out of groups of GroupSize leaves (Section 4.3). 0 disables groups
	// (the concurrent variant never uses them).
	GroupSize int
	// ValueSize is the size in bytes of the inline value field of
	// variable-size-key trees (Appendix A's payload sweep): the longest value
	// a slot holds. A shorter value is stored, flushed and read back at its
	// own length; a longer one is truncated. Fixed-key trees always store
	// 8-byte values. 0 means 8.
	ValueSize int
	// NumLogs is the number of split and delete micro-logs pre-allocated for
	// the concurrent variants. 0 means DefaultNumLogs.
	NumLogs int
}

// DefaultNumLogs bounds the number of in-flight structure modifications in
// the concurrent tree variants.
const DefaultNumLogs = 64

func (c *Config) normalize() error {
	if c.LeafCap == 0 {
		c.LeafCap = 56
	}
	if c.LeafCap < 2 || c.LeafCap > MaxLeafCap {
		return fmt.Errorf("fptree: leaf capacity %d out of range [2,%d]", c.LeafCap, MaxLeafCap)
	}
	if c.InnerFanout == 0 {
		c.InnerFanout = 4096
	}
	if c.InnerFanout < 2 {
		return fmt.Errorf("fptree: inner fanout %d too small", c.InnerFanout)
	}
	if c.GroupSize < 0 {
		return fmt.Errorf("fptree: negative group size")
	}
	if c.ValueSize == 0 {
		c.ValueSize = 8
	}
	if c.ValueSize < 1 || c.ValueSize > 4096 {
		return fmt.Errorf("fptree: value size %d out of range [1,4096]", c.ValueSize)
	}
	if c.NumLogs == 0 {
		c.NumLogs = DefaultNumLogs
	}
	return nil
}

// fixedLayout describes the SCM layout of a fixed-size-key leaf.
//
// FPTree variant (fingerprints, interleaved slots):
//
//	fingerprints[m] | bitmap u64 | next PPtr | high u64 | pad to 16 | m × (key u64, value u64)
//
// With m = 56:
//
//	  0  fingerprints[56]
//	 56  bitmap          — last word of line 0
//	 64  next PPtr
//	 80  high key        — the greatest key the leaf may hold
//	 96  slot 0 (key, value), slot s at 96 + 16·s
//	992  end, rounded up to 1024
//
// The fingerprint array plus the bitmap fill exactly the first cache line,
// and the slot array starts on a multiple of the 16-byte slot size, so no
// slot straddles two lines: a Find touches one line for the filter and one
// line for the matching key-value — the paper's "two SCM cache misses per
// lookup" — and an insert flushes one slot line. Header line 1 holds the
// next pointer and the high key, which a split and an unlink write and
// persist together, and which recovery reads in one access (recovery.go).
//
// PTree variant (no fingerprints, separate arrays):
//
//	bitmap u64 | next PPtr | high u64 | pad to 16 | keys[m] u64 | values[m] u64
type fixedLayout struct {
	cap       int
	hasFP     bool
	offBitmap uint64
	offNext   uint64 // right behind the bitmap
	offHigh   uint64 // the high key, right behind next
	offKV     uint64 // interleaved slots (FPTree) or key array (PTree)
	offVals   uint64 // value array (PTree only)
	size      uint64
}

func roundUp(n, to uint64) uint64 { return (n + to - 1) / to * to }

func newFixedLayoutV(leafCap int, v Variant) fixedLayout {
	l := fixedLayout{cap: leafCap, hasFP: v == VariantFPTree}
	if l.hasFP {
		l.offBitmap = roundUp(uint64(leafCap), 8)
	}
	l.offNext = l.offBitmap + 8
	l.offHigh = l.offNext + scm.PPtrSize
	l.offKV = roundUp(l.offHigh+8, 16)
	if l.hasFP {
		l.size = l.offKV + uint64(leafCap)*16
	} else {
		l.offVals = l.offKV + uint64(leafCap)*8
		l.size = l.offVals + uint64(leafCap)*8
	}
	l.size = roundUp(l.size, scm.LineSize)
	return l
}

func (l fixedLayout) keyOff(leaf uint64, slot int) uint64 {
	if l.hasFP {
		return leaf + l.offKV + uint64(slot)*16
	}
	return leaf + l.offKV + uint64(slot)*8
}

func (l fixedLayout) valOff(leaf uint64, slot int) uint64 {
	if l.hasFP {
		return leaf + l.offKV + uint64(slot)*16 + 8
	}
	return leaf + l.offVals + uint64(slot)*8
}

// varLayout describes a variable-size-key leaf. Each slot stores a 16-byte
// key cell, the length word, and an inline value field of ValueSize bytes.
// The cell holds the key itself, zero-padded, when klen <= 16, and otherwise
// a persistent pointer to the key (allocated separately, as in Appendix C).
// The length word is klen (low 32 bits) | vlen (high 32 bits): the field's
// first vlen bytes are the value, and nothing reads, writes or flushes the
// rest of it.
//
// A slot of at most a line is one block, slot s at offKV + slotSize·s:
//
//	fingerprints[m] | bitmap u64 | next PPtr |
//	high (key [16]byte, klen u64) | pad to 32 |
//	m × (pkey PPtr or key [16]byte, klen u32 | vlen u32, value [ValueSize]byte)
//
// The high key is the greatest key the leaf may hold, kept as an inline key
// cell and its length; a length of 0 says the leaf stores no high key (its
// split key was longer than a cell, and recovery scans the leaf for its max
// key instead). With m = 56 the high key fills bytes 80-104 of header line 1,
// slots start at byte 128 and a slot is 32 bytes with 8-byte values (leaf
// 1920 bytes). The slot array starts on a multiple of 32, so whenever the
// slot size is a multiple of 32 every slot's pkey is 16-byte aligned and its
// pkey|klen pair — for 32-byte slots the whole slot — sits in one line:
// staging a slot dirties one line and one persist flushes it. Other slot
// sizes keep the pair 8-byte aligned only.
//
// A slot wider than a line (kvserver's 122-byte values, a 152-byte slot) is
// split in two. Its head is one line, head s at offKV + 64·s with offKV
// rounded up to a line, and holds the cell, the length word and the value's
// first 40 bytes; its tail, the other slotSize − 64 bytes, holds the rest of
// the value at offTail + tailSize·s, behind the last head:
//
//	header | pad to 64 | m × head (cell 16 | klen|vlen 8 | value[0:40]) |
//	m × tail (value[40:ValueSize])
//
// With m = 56 the heads span bytes 128-3712 and the 88-byte tails 3712-8640,
// the leaf's 8640 bytes whichever way it is cut. A value of at most 40 bytes
// lives in its slot's head line alone: it is staged, flushed and read as one
// line. Recovery reads the two header lines of a leaf and, only in a tree
// that has published a key block or for a leaf that stores no high key, the
// heads too (58 lines), never a tail.
type varLayout struct {
	cap       int
	valSize   int
	hasFP     bool
	slotSize  uint64
	headSize  uint64 // a slot's bytes at slotOff: the whole slot, or its head line
	tailSize  uint64 // 0 unless the slot is split
	offBitmap uint64
	offNext   uint64 // right behind the bitmap
	offHigh   uint64 // the high key's cell and length word, right behind next
	offKV     uint64
	offTail   uint64 // end of the slot (or head) array, where the tails start
	size      uint64
}

func newVarLayoutV(leafCap, valueSize int, v Variant) varLayout {
	l := varLayout{cap: leafCap, valSize: valueSize, hasFP: v == VariantFPTree}
	l.slotSize = scm.PPtrSize + 8 + roundUp(uint64(valueSize), 8)
	if l.hasFP {
		l.offBitmap = roundUp(uint64(leafCap), 8)
	}
	l.offNext = l.offBitmap + 8
	l.offHigh = l.offNext + scm.PPtrSize
	l.headSize = l.slotSize
	align := uint64(32)
	if l.slotSize > scm.LineSize {
		l.headSize, align = scm.LineSize, scm.LineSize
		l.tailSize = l.slotSize - scm.LineSize
	}
	l.offKV = roundUp(l.offHigh+cellSize, align)
	l.offTail = l.offKV + uint64(leafCap)*l.headSize
	l.size = roundUp(l.offTail+uint64(leafCap)*l.tailSize, scm.LineSize)
	return l
}

// slotOff is where slot s starts: its key cell, and the head of a split slot.
func (l varLayout) slotOff(leaf uint64, slot int) uint64 {
	return leaf + l.offKV + uint64(slot)*l.headSize
}

func (l varLayout) pkeyOff(leaf uint64, slot int) uint64 { return l.slotOff(leaf, slot) }

func (l varLayout) klenOff(leaf uint64, slot int) uint64 {
	return l.slotOff(leaf, slot) + scm.PPtrSize
}

// valOff is where the value starts, behind the length word.
func (l varLayout) valOff(leaf uint64, slot int) uint64 {
	return l.slotOff(leaf, slot) + cellSize
}

// tailOff is where a split slot's value continues past the 40 bytes its head
// holds.
func (l varLayout) tailOff(leaf uint64, slot int) uint64 {
	return leaf + l.offTail + uint64(slot)*l.tailSize
}

// splitVal is how a value of n bytes divides between the head, which holds
// the whole field unless the slot is split, and the tail.
func (l varLayout) splitVal(n uint64) (head, tail uint64) {
	head = min(n, l.headSize-cellSize)
	return head, n - head
}

// hash1 produces the one-byte fingerprint of a fixed-size key. Fibonacci
// hashing spreads uniform and sequential key spaces evenly over the 256
// fingerprint values.
func hash1(key uint64) byte {
	return byte((key * 0x9E3779B97F4A7C15) >> 56)
}

// hash1Bytes produces the one-byte fingerprint of a variable-size key
// (FNV-1a, folded to one byte).
func hash1Bytes(key []byte) byte {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return byte(h ^ h>>8 ^ h>>16 ^ h>>24)
}
