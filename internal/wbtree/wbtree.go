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
// key, and nothing in the tree reclaims or reports the block.
//
// Node layout (cap ≤ 63 entries):
//
//	 0  slot array: 64 bytes — slot[0] = count, slot[1..count] = entry
//	    indexes in ascending key order (one cache line)
//	64  bitmap u64 — bit 63 = "slot array valid", bits 0..cap-1 = entry valid
//	72  flags  u64 — 1 = leaf
//	80  entries: cap × entrySize
//
// An entry is a keycell key cell then val u64 (the child offset in inner
// nodes): key u64 | val u64 for fixed keys, pkey PPtr | klen u64 | val u64
// for variable-size ones. The tree is written once, generic over the key
// (Index[K]); Tree and VarTree name the two instances.
package wbtree

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"fptree/internal/keycell"
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

// Index is the wBTree over keys K with 8-byte values. Not safe for
// concurrent use.
type Index[K keycell.Key] struct {
	pool     *scm.Pool
	kc       keycell.Codec[K]
	keySize  uint64 // the key cell's width, which the entry's value follows
	innerCap int
	leafCap  int
	meta     uint64
	size     int

	// Probe counters for the Figure 4 comparison (atomic: callers run finds
	// in parallel under a read lock).
	Searches  atomic.Uint64
	KeyProbes atomic.Uint64
}

// Tree is the fixed-size-key wBTree; VarTree is the variable-size-key one.
type (
	Tree    = Index[uint64]
	VarTree = Index[[]byte]
)

func newIndex[K keycell.Key](pool *scm.Pool, meta uint64, innerCap, leafCap int) *Index[K] {
	kc := keycell.For[K]()
	return &Index[K]{pool: pool, kc: kc, keySize: kc.Size(), innerCap: innerCap, leafCap: leafCap, meta: meta}
}

func (t *Index[K]) entrySize() uint64 { return t.keySize + 8 }

func (t *Index[K]) nodeSize(cap int) uint64 {
	return (nOffEntries + uint64(cap)*t.entrySize() + scm.LineSize - 1) / scm.LineSize * scm.LineSize
}

func (t *Index[K]) capOf(leaf bool) int {
	if leaf {
		return t.leafCap
	}
	return t.innerCap
}

// New formats a fixed-size-key wBTree in the pool.
func New(pool *scm.Pool, cfg Config) (*Tree, error) { return create[uint64](pool, cfg) }

// NewVar formats a variable-size-key wBTree in the pool.
func NewVar(pool *scm.Pool, cfg Config) (*VarTree, error) { return create[[]byte](pool, cfg) }

func create[K keycell.Key](pool *scm.Pool, cfg Config) (*Index[K], error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if !pool.Root().IsNull() {
		return nil, fmt.Errorf("wbtree: pool already contains a tree")
	}
	if _, err := pool.AllocRoot(metaSize); err != nil {
		return nil, err
	}
	t := newIndex[K](pool, pool.Root().Offset, cfg.InnerCap, cfg.LeafCap)
	p := pool
	p.WriteU64(t.meta+mOffMagic, metaMagic)
	p.WriteU64(t.meta+mOffKeyMode, t.kc.Mode())
	p.WriteU64(t.meta+mOffInnerCap, uint64(cfg.InnerCap))
	p.WriteU64(t.meta+mOffLeafCap, uint64(cfg.LeafCap))
	p.Persist(t.meta, metaSize)
	return t, nil
}

// Open recovers a fixed-size-key wBTree: because the whole tree lives in
// SCM, recovery is just micro-log replay — the near-instant restart the
// paper reports for the wBTree.
func Open(pool *scm.Pool) (*Tree, error) { return open[uint64](pool) }

// OpenVar recovers a variable-size-key wBTree.
func OpenVar(pool *scm.Pool) (*VarTree, error) { return open[[]byte](pool) }

func open[K keycell.Key](pool *scm.Pool) (*Index[K], error) {
	pool.Recover()
	root := pool.Root()
	if root.IsNull() {
		return nil, fmt.Errorf("wbtree: arena has no tree")
	}
	meta := root.Offset
	if pool.ReadU64(meta+mOffMagic) != metaMagic {
		return nil, fmt.Errorf("wbtree: bad metadata magic")
	}
	if pool.ReadU64(meta+mOffKeyMode) != keycell.For[K]().Mode() {
		return nil, fmt.Errorf("wbtree: key mode mismatch")
	}
	t := newIndex[K](pool, meta, int(pool.ReadU64(meta+mOffInnerCap)), int(pool.ReadU64(meta+mOffLeafCap)))
	t.recover()
	t.size = t.countKeys(t.rootOff())
	return t, nil
}

// --- node accessors ---------------------------------------------------------

func (t *Index[K]) rootOff() uint64 { return t.pool.ReadU64(t.meta + mOffRoot) }
func (t *Index[K]) setRootOff(off uint64) {
	t.pool.WriteU64(t.meta+mOffRoot, off)
	t.pool.Persist(t.meta+mOffRoot, 8)
}
func (t *Index[K]) nBitmap(n uint64) uint64 { return t.pool.ReadU64(n + nOffBitmap) }
func (t *Index[K]) nIsLeaf(n uint64) bool   { return t.pool.ReadU64(n+nOffFlags)&flagLeaf != 0 }

func (t *Index[K]) setBitmap(n, bm uint64) {
	t.pool.WriteU64(n+nOffBitmap, bm)
	t.pool.Persist(n+nOffBitmap, 8)
}

func (t *Index[K]) entryOff(n uint64, e int) uint64 {
	return n + nOffEntries + uint64(e)*t.entrySize()
}

// An entry's key cell starts the entry; its value follows the cell.
func (t *Index[K]) entryVal(n uint64, e int) uint64 {
	return t.pool.ReadU64(t.entryOff(n, e) + t.keySize)
}

func (t *Index[K]) setEntryVal(n uint64, e int, v uint64) {
	off := t.entryOff(n, e) + t.keySize
	t.pool.WriteU64(off, v)
	t.pool.Persist(off, 8)
}

func (t *Index[K]) entryKey(n uint64, e int) K { return t.kc.Key(t.pool, t.entryOff(n, e)) }

// entryIsInf reports whether entry e carries the "+infinity" separator that
// marks the rightmost spine of the tree (introduced when the root grows).
func (t *Index[K]) entryIsInf(n uint64, e int) bool { return t.kc.IsInf(t.pool, t.entryOff(n, e)) }

// cmpKey three-way-compares entry e's key with the probe key; the infinity
// separator is greater than any probe key.
func (t *Index[K]) cmpKey(n uint64, e int, k K) int {
	t.KeyProbes.Add(1)
	return t.kc.CompareAt(t.pool, t.entryOff(n, e), k)
}

// cmpEntries orders two entries of the same node, inf sorting last.
func (t *Index[K]) cmpEntries(n uint64, e1, e2 int) int {
	i1, i2 := t.entryIsInf(n, e1), t.entryIsInf(n, e2)
	switch {
	case i1 && i2:
		return 0
	case i1:
		return 1
	case i2:
		return -1
	}
	return t.kc.Compare(t.entryKey(n, e1), t.entryKey(n, e2))
}

// slots reads the slot array; ok is false when it is invalid and the caller
// must fall back to a bitmap scan.
func (t *Index[K]) slots(n uint64) ([]byte, bool) {
	if t.nBitmap(n)&slotValidBit == 0 {
		return nil, false
	}
	var buf [64]byte
	t.pool.ReadInto(n, buf[:])
	return buf[:], true
}

// sortedEntries returns the node's valid entry indexes in ascending key
// order, from the slot array when valid, else by sorting a bitmap scan.
func (t *Index[K]) sortedEntries(n uint64) []int {
	if sl, ok := t.slots(n); ok {
		bm := t.nBitmap(n)
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
	bm := t.nBitmap(n)
	var out []int
	for e := 0; e < 63; e++ {
		if bm&(1<<e) != 0 {
			out = append(out, e)
		}
	}
	// Insertion sort by key: nodes are small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			if t.cmpEntries(n, out[j-1], out[j]) <= 0 {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// writeSlots persists a fresh slot array (ascending entry indexes by key)
// and marks it valid in the same bitmap write that commits validity changes.
func (t *Index[K]) writeSlots(n uint64, order []int) {
	var buf [64]byte
	buf[0] = byte(len(order))
	for i, e := range order {
		buf[1+i] = byte(e)
	}
	t.pool.WriteBytes(n, buf[:])
	t.pool.Persist(n, 64)
}

// search binary-searches the node through its slot array, returning the
// position (rank) of the first entry with key >= probe and whether that
// entry's key equals the probe. This is the log2(m) probe behaviour of
// Figure 4.
func (t *Index[K]) search(n uint64, k K) (order []int, rank int, exact bool) {
	order = t.sortedEntries(n)
	t.Searches.Add(1)
	lo, hi := 0, len(order)
	for lo < hi {
		mid := (lo + hi) / 2
		c := t.cmpKey(n, order[mid], k)
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
func (t *Index[K]) childOf(n uint64, k K) (child uint64, order []int, idx int) {
	order, rank, _ := t.search(n, k)
	if len(order) == 0 {
		panic("wbtree: descent into empty inner node")
	}
	idx = rank
	if idx >= len(order) {
		idx = len(order) - 1
	}
	return t.entryVal(n, order[idx]), order, idx
}

// --- allocation -------------------------------------------------------------

// newNode allocates and initializes a node through the given owning cell.
func (t *Index[K]) newNode(refOff uint64, leaf bool) (uint64, error) {
	capN := t.capOf(leaf)
	ptr, err := t.pool.Alloc(refOff, t.nodeSize(capN))
	if err != nil {
		return 0, err
	}
	var flags uint64
	if leaf {
		flags = flagLeaf
	}
	t.pool.WriteU64(ptr.Offset+nOffFlags, flags)
	t.pool.WriteU64(ptr.Offset+nOffBitmap, slotValidBit)
	t.pool.Persist(ptr.Offset+nOffFlags, 16)
	return ptr.Offset, nil
}

func (t *Index[K]) splitLog() scm.MicroLog { return t.pool.MicroLog(t.meta+mOffSplitLog, 3) }
func (t *Index[K]) delLog() scm.MicroLog   { return t.pool.MicroLog(t.meta+mOffDelLog, 3) }
func (t *Index[K]) rootLog() scm.MicroLog  { return t.pool.MicroLog(t.meta+mOffRootLog, 3) }

// Len returns the number of live keys.
func (t *Index[K]) Len() int { return t.size }

// Pool returns the backing pool.
func (t *Index[K]) Pool() *scm.Pool { return t.pool }

func (t *Index[K]) countKeys(n uint64) int {
	if n == 0 {
		return 0
	}
	if t.nIsLeaf(n) {
		return bits.OnesCount64(t.nBitmap(n) &^ slotValidBit)
	}
	total := 0
	for _, e := range t.sortedEntries(n) {
		total += t.countKeys(t.entryVal(n, e))
	}
	return total
}
