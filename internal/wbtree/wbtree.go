// Package wbtree reimplements the write-atomic B+-Tree (wB+Tree) of Chen and
// Jin (PVLDB 2015) as evaluated in the FPTree paper: a persistent B+-Tree
// that lives entirely in SCM — inner nodes included — and achieves
// consistency through p-atomic bitmap updates plus sorted indirection slot
// arrays that enable binary search inside the unsorted nodes. As in the
// paper's evaluation, the original undo-redo logs are replaced with the more
// lightweight FPTree-style micro-logs.
//
// Because the whole tree is in SCM, recovery is near-instantaneous (micro-log
// replay only, no rebuild), but every inner-node access pays the SCM latency
// — the trade-off Figure 12 illustrates. Faithful to the paper's critique
// (Section 3), the wBTree does not track allocations of variable-size keys
// across crashes: a crash between a key allocation and its commit leaks the
// key. LeakCheck exposes this for tests.
//
// Node layout (cap ≤ 63 entries):
//
//	 0  slot array: 64 bytes — slot[0] = count, slot[1..count] = entry
//	    indexes in ascending key order (one cache line)
//	64  bitmap u64 — bit 63 = "slot array valid", bits 0..cap-1 = entry valid
//	72  flags  u64 — 1 = leaf
//	80  entries: cap × entrySize
//
// Fixed-key entry: key u64 | val u64 (val = child offset in inner nodes).
// Var-key entry:   pkey PPtr | klen u64 | val u64.
package wbtree

import (
	"bytes"
	"fmt"
	"math/bits"
	"sync/atomic"

	"fptree/internal/scm"
)

const (
	slotValidBit = uint64(1) << 63

	nOffSlots   = 0
	nOffBitmap  = 64
	nOffFlags   = 72
	nOffEntries = 80

	flagLeaf = 1

	// Meta block layout.
	mOffMagic    = 0
	mOffKeyMode  = 8
	mOffInnerCap = 16
	mOffLeafCap  = 24
	mOffRoot     = 32 // root node offset (8-byte p-atomic commit)
	mOffValSize  = 40
	mOffSplitLog = 64  // PCur, PNew, PParent (one cache line)
	mOffDelLog   = 128 // PCur, PParent
	mOffRootLog  = 192 // PNewRoot
	metaSize     = 256

	metaMagic = 0x3B7EE_0001

	modeFixed = 0
	modeVar   = 1
)

// Config tunes the node capacities (Table 1: inner 32, leaf 64 — capped at
// 63 here so the slot array stays within one cache line).
type Config struct {
	InnerCap int // entries per inner node (children)
	LeafCap  int // entries per leaf
}

func (c *Config) normalize() error {
	if c.InnerCap == 0 {
		c.InnerCap = 32
	}
	if c.LeafCap == 0 {
		c.LeafCap = 63
	}
	if c.InnerCap < 4 || c.InnerCap > 63 || c.LeafCap < 2 || c.LeafCap > 63 {
		return fmt.Errorf("wbtree: node capacities out of range [3..63]/[2..63]: %+v", *c)
	}
	return nil
}

// Tree is the fixed-size-key wBTree. Not safe for concurrent use.
type Tree struct {
	*base
}

// VarTree is the variable-size-key wBTree.
type VarTree struct {
	*base
}

// base carries everything shared between the two key modes.
type base struct {
	pool     *scm.Pool
	mode     int
	innerCap int
	leafCap  int
	meta     uint64
	size     int

	// Probe counters for the Figure 4 comparison (atomic: callers run finds
	// in parallel under a read lock).
	Searches  atomic.Uint64
	KeyProbes atomic.Uint64
}

func (b *base) entrySize() uint64 {
	if b.mode == modeVar {
		return scm.PPtrSize + 16
	}
	return 16
}

func (b *base) nodeSize(cap int) uint64 {
	return (nOffEntries + uint64(cap)*b.entrySize() + scm.LineSize - 1) / scm.LineSize * scm.LineSize
}

func (b *base) capOf(leaf bool) int {
	if leaf {
		return b.leafCap
	}
	return b.innerCap
}

// New formats a fixed-size-key wBTree in the pool.
func New(pool *scm.Pool, cfg Config) (*Tree, error) {
	b, err := create(pool, cfg, modeFixed)
	if err != nil {
		return nil, err
	}
	return &Tree{base: b}, nil
}

// NewVar formats a variable-size-key wBTree in the pool.
func NewVar(pool *scm.Pool, cfg Config) (*VarTree, error) {
	b, err := create(pool, cfg, modeVar)
	if err != nil {
		return nil, err
	}
	return &VarTree{base: b}, nil
}

func create(pool *scm.Pool, cfg Config, mode int) (*base, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if !pool.Root().IsNull() {
		return nil, fmt.Errorf("wbtree: pool already contains a tree")
	}
	if _, err := pool.AllocRoot(metaSize); err != nil {
		return nil, err
	}
	b := &base{pool: pool, mode: mode, innerCap: cfg.InnerCap, leafCap: cfg.LeafCap, meta: pool.Root().Offset}
	p := pool
	p.WriteU64(b.meta+mOffMagic, metaMagic)
	p.WriteU64(b.meta+mOffKeyMode, uint64(mode))
	p.WriteU64(b.meta+mOffInnerCap, uint64(cfg.InnerCap))
	p.WriteU64(b.meta+mOffLeafCap, uint64(cfg.LeafCap))
	p.Persist(b.meta, metaSize)
	return b, nil
}

// Open recovers a fixed-size-key wBTree: because the whole tree lives in
// SCM, recovery is just micro-log replay — the near-instant restart the
// paper reports for the wBTree.
func Open(pool *scm.Pool) (*Tree, error) {
	b, err := open(pool, modeFixed)
	if err != nil {
		return nil, err
	}
	return &Tree{base: b}, nil
}

// OpenVar recovers a variable-size-key wBTree.
func OpenVar(pool *scm.Pool) (*VarTree, error) {
	b, err := open(pool, modeVar)
	if err != nil {
		return nil, err
	}
	return &VarTree{base: b}, nil
}

func open(pool *scm.Pool, mode int) (*base, error) {
	pool.Recover()
	root := pool.Root()
	if root.IsNull() {
		return nil, fmt.Errorf("wbtree: arena has no tree")
	}
	b := &base{pool: pool, meta: root.Offset}
	if pool.ReadU64(b.meta+mOffMagic) != metaMagic {
		return nil, fmt.Errorf("wbtree: bad metadata magic")
	}
	if got := int(pool.ReadU64(b.meta + mOffKeyMode)); got != mode {
		return nil, fmt.Errorf("wbtree: key mode mismatch")
	}
	b.mode = mode
	b.innerCap = int(pool.ReadU64(b.meta + mOffInnerCap))
	b.leafCap = int(pool.ReadU64(b.meta + mOffLeafCap))
	b.recover()
	b.size = b.countKeys(b.rootOff())
	return b, nil
}

// --- node accessors ---------------------------------------------------------

func (b *base) rootOff() uint64 { return b.pool.ReadU64(b.meta + mOffRoot) }
func (b *base) setRootOff(off uint64) {
	b.pool.WriteU64(b.meta+mOffRoot, off)
	b.pool.Persist(b.meta+mOffRoot, 8)
}
func (b *base) nBitmap(n uint64) uint64 { return b.pool.ReadU64(n + nOffBitmap) }
func (b *base) nIsLeaf(n uint64) bool   { return b.pool.ReadU64(n+nOffFlags)&flagLeaf != 0 }

func (b *base) setBitmap(n, bm uint64) {
	b.pool.WriteU64(n+nOffBitmap, bm)
	b.pool.Persist(n+nOffBitmap, 8)
}

func (b *base) entryOff(n uint64, e int) uint64 {
	return n + nOffEntries + uint64(e)*b.entrySize()
}

func (b *base) entryVal(n uint64, e int) uint64 {
	if b.mode == modeVar {
		return b.pool.ReadU64(b.entryOff(n, e) + scm.PPtrSize + 8)
	}
	return b.pool.ReadU64(b.entryOff(n, e) + 8)
}

func (b *base) setEntryVal(n uint64, e int, v uint64) {
	off := b.entryOff(n, e) + 8
	if b.mode == modeVar {
		off = b.entryOff(n, e) + scm.PPtrSize + 8
	}
	b.pool.WriteU64(off, v)
	b.pool.Persist(off, 8)
}

func (b *base) entryKeyFixed(n uint64, e int) uint64 {
	return b.pool.ReadU64(b.entryOff(n, e))
}

func (b *base) entryKeyVar(n uint64, e int) []byte {
	pk := b.pool.ReadPPtr(b.entryOff(n, e))
	klen := b.pool.ReadU64(b.entryOff(n, e) + scm.PPtrSize)
	return b.pool.ReadBytes(pk.Offset, klen)
}

// cmpKey three-way-compares entry e's key with the probe key (exactly one of
// fk/vk is used depending on the mode).
func (b *base) cmpKey(n uint64, e int, fk uint64, vk []byte) int {
	b.KeyProbes.Add(1)
	if b.entryIsInf(n, e) {
		return 1 // the infinity separator is greater than any probe key
	}
	if b.mode == modeFixed {
		k := b.entryKeyFixed(n, e)
		switch {
		case k < fk:
			return -1
		case k > fk:
			return 1
		}
		return 0
	}
	return bytes.Compare(b.entryKeyVar(n, e), vk)
}

// entryIsInf reports whether entry e carries the "+infinity" separator that
// marks the rightmost spine of the tree (introduced when the root grows).
func (b *base) entryIsInf(n uint64, e int) bool {
	if b.mode == modeFixed {
		return b.entryKeyFixed(n, e) == ^uint64(0)
	}
	return b.pool.ReadU64(b.entryOff(n, e)+scm.PPtrSize) == ^uint64(0)
}

// cmpEntries orders two entries of the same node, inf sorting last.
func (b *base) cmpEntries(n uint64, e1, e2 int) int {
	i1, i2 := b.entryIsInf(n, e1), b.entryIsInf(n, e2)
	switch {
	case i1 && i2:
		return 0
	case i1:
		return 1
	case i2:
		return -1
	}
	if b.mode == modeFixed {
		a, bb := b.entryKeyFixed(n, e1), b.entryKeyFixed(n, e2)
		switch {
		case a < bb:
			return -1
		case a > bb:
			return 1
		}
		return 0
	}
	return bytes.Compare(b.entryKeyVar(n, e1), b.entryKeyVar(n, e2))
}

// slots reads the slot array; ok is false when it is invalid and the caller
// must fall back to a bitmap scan.
func (b *base) slots(n uint64) ([]byte, bool) {
	if b.nBitmap(n)&slotValidBit == 0 {
		return nil, false
	}
	var buf [64]byte
	b.pool.ReadInto(n, buf[:])
	return buf[:], true
}

// sortedEntries returns the node's valid entry indexes in ascending key
// order, from the slot array when valid, else by sorting a bitmap scan.
func (b *base) sortedEntries(n uint64) []int {
	if sl, ok := b.slots(n); ok {
		bm := b.nBitmap(n)
		cnt := int(sl[0])
		out := make([]int, 0, cnt)
		for i := 0; i < cnt; i++ {
			e := int(sl[1+i])
			if bm&(1<<e) != 0 { // the slot array is a superset; filter
				out = append(out, e)
			}
		}
		return out
	}
	bm := b.nBitmap(n)
	var out []int
	for e := 0; e < 63; e++ {
		if bm&(1<<e) != 0 {
			out = append(out, e)
		}
	}
	// Insertion sort by key: nodes are small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			if b.cmpEntries(n, out[j-1], out[j]) <= 0 {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// writeSlots persists a fresh slot array (ascending entry indexes by key)
// and marks it valid in the same bitmap write that commits validity changes.
func (b *base) writeSlots(n uint64, order []int) {
	var buf [64]byte
	buf[0] = byte(len(order))
	for i, e := range order {
		buf[1+i] = byte(e)
	}
	b.pool.WriteBytes(n, buf[:])
	b.pool.Persist(n, 64)
}

// search binary-searches the node through its slot array, returning the
// position (rank) of the first entry with key >= probe and whether that
// entry's key equals the probe. This is the log2(m) probe behaviour of
// Figure 4.
func (b *base) search(n uint64, fk uint64, vk []byte) (order []int, rank int, exact bool) {
	order = b.sortedEntries(n)
	b.Searches.Add(1)
	lo, hi := 0, len(order)
	for lo < hi {
		mid := (lo + hi) / 2
		c := b.cmpKey(n, order[mid], fk, vk)
		if c < 0 {
			lo = mid + 1
		} else if c > 0 {
			hi = mid
		} else {
			return order, mid, true
		}
	}
	return order, lo, false
}

// childIdx picks the descent child: separators are "max key of the left
// subtree", so the first separator >= key covers it; greater keys go to the
// last child. Inner nodes store cnt children whose entry keys are the
// subtree max keys; descent into entry order[idx].
func (b *base) childOf(n uint64, fk uint64, vk []byte) (child uint64, order []int, idx int) {
	order, rank, _ := b.search(n, fk, vk)
	if len(order) == 0 {
		panic("wbtree: descent into empty inner node")
	}
	idx = rank
	if idx >= len(order) {
		idx = len(order) - 1
	}
	return b.entryVal(n, order[idx]), order, idx
}

// --- allocation -------------------------------------------------------------

// newNode allocates and initializes a node through the given owning cell.
func (b *base) newNode(refOff uint64, leaf bool) (uint64, error) {
	capN := b.capOf(leaf)
	ptr, err := b.pool.Alloc(refOff, b.nodeSize(capN))
	if err != nil {
		return 0, err
	}
	var flags uint64
	if leaf {
		flags = flagLeaf
	}
	b.pool.WriteU64(ptr.Offset+nOffFlags, flags)
	b.pool.WriteU64(ptr.Offset+nOffBitmap, slotValidBit)
	b.pool.Persist(ptr.Offset+nOffFlags, 16)
	return ptr.Offset, nil
}

func (b *base) splitLog() mcell { return mcell{b.pool, b.meta + mOffSplitLog} }
func (b *base) delLog() mcell   { return mcell{b.pool, b.meta + mOffDelLog} }
func (b *base) rootLog() mcell  { return mcell{b.pool, b.meta + mOffRootLog} }

// mcell is a cache-line micro-log of up to three persistent pointers.
type mcell struct {
	pool *scm.Pool
	off  uint64
}

func (c mcell) p(i int) scm.PPtr  { return c.pool.ReadPPtr(c.off + uint64(i)*scm.PPtrSize) }
func (c mcell) pOff(i int) uint64 { return c.off + uint64(i)*scm.PPtrSize }

func (c mcell) set(i int, v scm.PPtr) {
	c.pool.WritePPtr(c.off+uint64(i)*scm.PPtrSize, v)
	c.pool.Persist(c.off+uint64(i)*scm.PPtrSize, scm.PPtrSize)
}

func (c mcell) reset() {
	for i := 0; i < 3; i++ {
		c.pool.WritePPtr(c.off+uint64(i)*scm.PPtrSize, scm.PPtr{})
	}
	c.pool.Persist(c.off, 3*scm.PPtrSize)
}

// Len returns the number of live keys.
func (b *base) Len() int { return b.size }

// Pool returns the backing pool.
func (b *base) Pool() *scm.Pool { return b.pool }

func (b *base) countKeys(n uint64) int {
	if n == 0 {
		return 0
	}
	if b.nIsLeaf(n) {
		return bits.OnesCount64(b.nBitmap(n) &^ slotValidBit)
	}
	total := 0
	for _, e := range b.sortedEntries(n) {
		total += b.countKeys(b.entryVal(n, e))
	}
	return total
}
