// Package nvtree reimplements the NV-Tree of Yang et al. (FAST 2015 / IEEE
// TC 2015) as evaluated in the FPTree paper: leaves in SCM with an
// append-only log structure (inserts, updates and deletes all append an
// entry; a counter commit makes each append p-atomic), searched by reverse
// linear scan, and inner nodes kept contiguous in DRAM and rebuilt wholesale
// whenever a last-level inner node (leaf parent) overflows.
//
// Faithful characteristics the evaluation depends on:
//   - The reverse linear leaf scan costs (m+1)/2 key probes per lookup
//     (Figure 4's middle curve).
//   - Every entry carries a flag word, inflating SCM consumption (Figure 8).
//   - Leaf-parent overflow triggers a full inner-node rebuild, which is slow
//     and allocates sparse, capacity-padded parents — the DRAM blow-up and
//     the skewed-insert pathology of Section 6.4.
//   - The concurrent variant takes a global write lock for splits and
//     rebuilds, which limits its write scalability (Figures 9-11).
package nvtree

import (
	"bytes"
	"fmt"
	"sort"
	"sync/atomic"

	"fptree/internal/scm"
)

const (
	entryInsert = 1
	entryDelete = 2

	lOffCount = 0
	lOffNext  = 8
	lOffBound = 24 // fixed: u64 upper bound; var: PPtr + length (24 bytes)

	mOffMagic    = 0
	mOffKeyMode  = 8
	mOffLeafCap  = 16
	mOffValSize  = 24
	mOffHead     = 32  // head leaf PPtr
	mOffSplitLog = 64  // PCur, PNew1, PNew2, PPrev — one cache line
	mOffDelLog   = 128 // PCur, PPrev
	metaSize     = 192

	metaMagic = 0x4EF7_EE00_0001

	modeFixed = 0
	modeVar   = 1
)

// Config tunes the tree.
type Config struct {
	// LeafCap is the number of append slots per leaf (Table 1: 32; the
	// database experiment uses 1024).
	LeafCap int
	// InnerCap is the number of leaf slots per last-level inner node (leaf
	// parent) in DRAM.
	InnerCap int
	// ValueSize is the inline value size in bytes for variable-size keys.
	ValueSize int
}

func (c *Config) normalize() error {
	if c.LeafCap == 0 {
		c.LeafCap = 32
	}
	if c.InnerCap == 0 {
		c.InnerCap = 128
	}
	if c.ValueSize == 0 {
		c.ValueSize = 8
	}
	if c.LeafCap < 4 || c.LeafCap > 4096 || c.InnerCap < 4 {
		return fmt.Errorf("nvtree: bad config %+v", *c)
	}
	return nil
}

// Tree is the single-threaded fixed-size-key NV-Tree.
type Tree struct {
	*base
}

// VarTree is the single-threaded variable-size-key NV-Tree.
type VarTree struct {
	*base
}

type base struct {
	pool    *scm.Pool
	mode    int
	leafCap int
	valSize int
	plnCap  int
	meta    uint64
	size    int

	// DRAM part: contiguous last-level inner nodes (leaf parents) plus a
	// sorted directory over their max keys. Rebuilt wholesale on overflow
	// and on recovery.
	plns     []pln
	rebuilds uint64 // number of full inner-node rebuilds (pathology counter)

	// Probe counters for the Figure 4 comparison (atomic: the concurrent
	// wrappers run finds in parallel).
	Searches  atomic.Uint64
	KeyProbes atomic.Uint64
}

// pln is one leaf parent: capacity-padded arrays, as the NV-Tree's
// contiguous layout preallocates (the source of its DRAM footprint).
type pln struct {
	maxKeyF uint64   // directory key (fixed mode; ^0 = +infinity)
	maxKeyV []byte   // directory key (var mode)
	vInf    bool     // var mode: maxKeyV is +infinity
	sepsF   []uint64 // per-leaf routing bounds (nil sepsV entry = +infinity)
	sepsV   [][]byte
	leaves  []uint64
}

func (b *base) entrySize() uint64 {
	if b.mode == modeVar {
		return 8 + scm.PPtrSize + 8 + uint64((b.valSize+7)/8*8)
	}
	return 24 // flag + key + value: the flag word is pure overhead
}

// entriesOff is the offset of the first log slot; the leaf's routing bound
// sits between the next pointer and the log. Boundary keys are assigned at
// split time and never change, so routing stays stable across the inner
// rebuilds (as in the original NV-Tree, where leaves keep their split keys).
func (b *base) entriesOff() uint64 {
	if b.mode == modeVar {
		return lOffBound + scm.PPtrSize + 8
	}
	return lOffBound + 8
}

func (b *base) leafSize() uint64 {
	return (b.entriesOff() + uint64(b.leafCap)*b.entrySize() + scm.LineSize - 1) / scm.LineSize * scm.LineSize
}

// infBound is the fixed-mode "+infinity" routing bound.
const infBound = ^uint64(0)

// leafBoundF reads the fixed-mode bound.
func (b *base) leafBoundF(l uint64) uint64 { return b.pool.ReadU64(l + lOffBound) }

// leafBoundV reads the var-mode bound; nil means "+infinity".
func (b *base) leafBoundV(l uint64) []byte {
	klen := b.pool.ReadU64(l + lOffBound + scm.PPtrSize)
	if klen == ^uint64(0) {
		return nil
	}
	pk := b.pool.ReadPPtr(l + lOffBound)
	return b.pool.ReadBytes(pk.Offset, klen)
}

// setLeafBoundF durably stores a fixed-mode bound.
func (b *base) setLeafBoundF(l uint64, bound uint64) {
	b.pool.WriteU64(l+lOffBound, bound)
	b.pool.Persist(l+lOffBound, 8)
}

// setLeafBoundInfV marks a var-mode leaf as unbounded.
func (b *base) setLeafBoundInfV(l uint64) {
	b.pool.WritePPtr(l+lOffBound, scm.PPtr{})
	b.pool.WriteU64(l+lOffBound+scm.PPtrSize, ^uint64(0))
	b.pool.Persist(l+lOffBound, scm.PPtrSize+8)
}

// setLeafBoundV allocates a copy of the bound key owned by the leaf's bound
// cell.
func (b *base) setLeafBoundV(l uint64, bound []byte) error {
	b.pool.WriteU64(l+lOffBound+scm.PPtrSize, uint64(len(bound)))
	b.pool.Persist(l+lOffBound+scm.PPtrSize, 8)
	pk, err := b.pool.Alloc(l+lOffBound, uint64(len(bound)))
	if err != nil {
		return err
	}
	b.pool.WriteBytes(pk.Offset, bound)
	b.pool.Persist(pk.Offset, uint64(len(bound)))
	return nil
}

// copyLeafBound copies src's bound cell into dst (pointer copy: ownership
// moves with the surviving leaf).
func (b *base) copyLeafBound(dst, src uint64) {
	if b.mode == modeFixed {
		b.setLeafBoundF(dst, b.leafBoundF(src))
		return
	}
	b.pool.WritePPtr(dst+lOffBound, b.pool.ReadPPtr(src+lOffBound))
	b.pool.WriteU64(dst+lOffBound+scm.PPtrSize, b.pool.ReadU64(src+lOffBound+scm.PPtrSize))
	b.pool.Persist(dst+lOffBound, scm.PPtrSize+8)
}

// New formats a fixed-size-key NV-Tree.
func New(pool *scm.Pool, cfg Config) (*Tree, error) {
	b, err := create(pool, cfg, modeFixed)
	if err != nil {
		return nil, err
	}
	return &Tree{base: b}, nil
}

// NewVar formats a variable-size-key NV-Tree.
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
		return nil, fmt.Errorf("nvtree: pool already contains a tree")
	}
	if _, err := pool.AllocRoot(metaSize); err != nil {
		return nil, err
	}
	b := &base{pool: pool, mode: mode, leafCap: cfg.LeafCap, valSize: cfg.ValueSize, plnCap: cfg.InnerCap, meta: pool.Root().Offset}
	pool.WriteU64(b.meta+mOffMagic, metaMagic)
	pool.WriteU64(b.meta+mOffKeyMode, uint64(mode))
	pool.WriteU64(b.meta+mOffLeafCap, uint64(cfg.LeafCap))
	pool.WriteU64(b.meta+mOffValSize, uint64(cfg.ValueSize))
	pool.Persist(b.meta, metaSize)
	return b, nil
}

// HasTree reports whether the pool's arena already holds an NV-Tree's
// metadata block, as core.HasTree does for the FPTree family: it runs
// allocator recovery first, so a caller with a freshly reopened arena (memkv
// deciding between create and open on a -data file) can use it directly.
func HasTree(pool *scm.Pool) bool {
	pool.Recover()
	root := pool.Root()
	return !root.IsNull() && pool.ReadU64(root.Offset+mOffMagic) == metaMagic
}

// Open recovers a fixed-size-key NV-Tree: micro-log replay, then the full
// inner-node rebuild from the leaf list.
func Open(pool *scm.Pool, innerCap int) (*Tree, error) {
	b, err := open(pool, modeFixed, innerCap)
	if err != nil {
		return nil, err
	}
	return &Tree{base: b}, nil
}

// OpenVar recovers a variable-size-key NV-Tree.
func OpenVar(pool *scm.Pool, innerCap int) (*VarTree, error) {
	b, err := open(pool, modeVar, innerCap)
	if err != nil {
		return nil, err
	}
	return &VarTree{base: b}, nil
}

func open(pool *scm.Pool, mode, innerCap int) (*base, error) {
	pool.Recover()
	root := pool.Root()
	if root.IsNull() {
		return nil, fmt.Errorf("nvtree: arena has no tree")
	}
	b := &base{pool: pool, meta: root.Offset}
	if pool.ReadU64(b.meta+mOffMagic) != metaMagic {
		return nil, fmt.Errorf("nvtree: bad metadata magic")
	}
	if got := int(pool.ReadU64(b.meta + mOffKeyMode)); got != mode {
		return nil, fmt.Errorf("nvtree: key mode mismatch")
	}
	b.mode = mode
	b.leafCap = int(pool.ReadU64(b.meta + mOffLeafCap))
	b.valSize = int(pool.ReadU64(b.meta + mOffValSize))
	b.plnCap = innerCap
	if b.plnCap == 0 {
		b.plnCap = 128
	}
	b.recoverLogs()
	b.healTailBound()
	b.rebuildInner()
	return b, nil
}

// healTailBound repairs the one crash window in which a leaf is reachable
// without its "+infinity" routing bound: firstLeaf publishes the initial
// leaf through the head-cell allocation before the bound write persists, so
// a crash in between recovers a linked leaf whose bound still reads zero.
// Everywhere else the construction keeps the list's last leaf unbounded
// (leaves are never removed and splits clamp the upper half), so re-stamping
// the tail is idempotent and must run after micro-log replay settles the
// list.
func (b *base) healTailBound() {
	h := b.head()
	if h.IsNull() {
		return
	}
	l := h.Offset
	for {
		next := b.leafNext(l)
		if next.IsNull() {
			break
		}
		l = next.Offset
	}
	if b.mode == modeFixed {
		if b.leafBoundF(l) != infBound {
			b.setLeafBoundF(l, infBound)
		}
	} else if b.pool.ReadU64(l+lOffBound+scm.PPtrSize) != ^uint64(0) {
		b.setLeafBoundInfV(l)
	}
}

// Pool returns the backing pool.
func (b *base) Pool() *scm.Pool { return b.pool }

// Len returns the number of live keys.
func (b *base) Len() int { return b.size }

// Rebuilds returns how many full inner-node rebuilds have happened.
func (b *base) Rebuilds() uint64 { return b.rebuilds }

// DRAMBytes estimates the DRAM held by the capacity-padded inner nodes.
func (b *base) DRAMBytes() uint64 {
	var total uint64
	for i := range b.plns {
		total += uint64(cap(b.plns[i].leaves))*8 + uint64(cap(b.plns[i].sepsF))*8 + 64
		for _, s := range b.plns[i].sepsV {
			total += uint64(len(s)) + 24
		}
	}
	total += uint64(len(b.plns)) * 40 // directory
	return total
}

// --- leaf accessors -----------------------------------------------------------

func (b *base) head() scm.PPtr { return b.pool.ReadPPtr(b.meta + mOffHead) }

func (b *base) setHead(p scm.PPtr) {
	b.pool.WritePPtr(b.meta+mOffHead, p)
	b.pool.Persist(b.meta+mOffHead, scm.PPtrSize)
}

func (b *base) leafCount(l uint64) int     { return int(b.pool.ReadU64(l + lOffCount)) }
func (b *base) leafNext(l uint64) scm.PPtr { return b.pool.ReadPPtr(l + lOffNext) }

func (b *base) setLeafNext(l uint64, p scm.PPtr) {
	b.pool.WritePPtr(l+lOffNext, p)
	b.pool.Persist(l+lOffNext, scm.PPtrSize)
}

func (b *base) entryOff(l uint64, i int) uint64 {
	return l + b.entriesOff() + uint64(i)*b.entrySize()
}

func (b *base) entryFlag(l uint64, i int) uint64 { return b.pool.ReadU64(b.entryOff(l, i)) }

func (b *base) entryKeyF(l uint64, i int) uint64 { return b.pool.ReadU64(b.entryOff(l, i) + 8) }

func (b *base) entryKeyV(l uint64, i int) []byte {
	pk := b.pool.ReadPPtr(b.entryOff(l, i) + 8)
	klen := b.pool.ReadU64(b.entryOff(l, i) + 8 + scm.PPtrSize)
	return b.pool.ReadBytes(pk.Offset, klen)
}

func (b *base) entryKeyEqualsV(l uint64, i int, key []byte) bool {
	if b.pool.ReadU64(b.entryOff(l, i)+8+scm.PPtrSize) != uint64(len(key)) {
		return false
	}
	pk := b.pool.ReadPPtr(b.entryOff(l, i) + 8)
	return b.pool.EqualBytes(pk.Offset, key)
}

func (b *base) entryValF(l uint64, i int) uint64 {
	return b.pool.ReadU64(b.entryOff(l, i) + 16)
}

func (b *base) entryValV(l uint64, i int) []byte {
	return b.pool.ReadBytes(b.entryOff(l, i)+8+scm.PPtrSize+8, uint64(b.valSize))
}

// appendEntry writes one log entry and commits it by bumping the counter —
// the NV-Tree's p-atomic append. The caller guarantees space.
func (b *base) appendEntry(l uint64, flag uint64, fk uint64, vk []byte, valF uint64, valV []byte) error {
	n := b.leafCount(l)
	if n >= b.leafCap {
		panic("nvtree: append to full leaf")
	}
	off := b.entryOff(l, n)
	b.pool.WriteU64(off, flag)
	if b.mode == modeFixed {
		b.pool.WriteU64(off+8, fk)
		b.pool.WriteU64(off+16, valF)
		b.pool.Persist(off, 24)
	} else {
		b.pool.WriteU64(off+8+scm.PPtrSize, uint64(len(vk)))
		// One persist spanning flag..klen: the flag word at off has no other
		// persist covering it in the var path (the fixed path's Persist(off,
		// 24) does), and the count bump below must not commit an entry whose
		// flag is still only in the cache.
		b.pool.Persist(off, 8+scm.PPtrSize+8)
		pk, err := b.pool.Alloc(off+8, uint64(len(vk)))
		if err != nil {
			return err
		}
		b.pool.WriteBytes(pk.Offset, vk)
		b.pool.Persist(pk.Offset, uint64(len(vk)))
		buf := make([]byte, b.valSize)
		copy(buf, valV)
		b.pool.WriteBytes(off+8+scm.PPtrSize+8, buf)
		b.pool.Persist(off+8+scm.PPtrSize+8, uint64(len(buf)))
	}
	b.pool.WriteU64(l+lOffCount, uint64(n+1))
	b.pool.Persist(l+lOffCount, 8)
	return nil
}

// findInLeaf performs the NV-Tree's reverse linear scan: the most recent
// entry for the key decides (insert = live, delete = gone).
func (b *base) findInLeaf(l uint64, fk uint64, vk []byte) (idx int, live bool) {
	b.Searches.Add(1)
	n := b.leafCount(l)
	for i := n - 1; i >= 0; i-- {
		b.KeyProbes.Add(1)
		match := false
		if b.mode == modeFixed {
			match = b.entryKeyF(l, i) == fk
		} else {
			match = b.entryKeyEqualsV(l, i, vk)
		}
		if match {
			return i, b.entryFlag(l, i) == entryInsert
		}
	}
	return -1, false
}

// liveEntries returns the leaf's live (key -> latest entry index) pairs in
// ascending key order.
func (b *base) liveEntries(l uint64) (idxs []int) {
	n := b.leafCount(l)
	if b.mode == modeFixed {
		seen := make(map[uint64]bool, n)
		for i := n - 1; i >= 0; i-- {
			k := b.entryKeyF(l, i)
			if seen[k] {
				continue
			}
			seen[k] = true
			if b.entryFlag(l, i) == entryInsert {
				idxs = append(idxs, i)
			}
		}
		sort.Slice(idxs, func(x, y int) bool { return b.entryKeyF(l, idxs[x]) < b.entryKeyF(l, idxs[y]) })
		return idxs
	}
	seen := make(map[string]bool, n)
	for i := n - 1; i >= 0; i-- {
		k := string(b.entryKeyV(l, i))
		if seen[k] {
			continue
		}
		seen[k] = true
		if b.entryFlag(l, i) == entryInsert {
			idxs = append(idxs, i)
		}
	}
	sort.Slice(idxs, func(x, y int) bool {
		return bytes.Compare(b.entryKeyV(l, idxs[x]), b.entryKeyV(l, idxs[y])) < 0
	})
	return idxs
}
