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
//
// The tree is written once, generic over the key (Index[K, V]): its keys
// live in keycell cells and its values in an inline field chosen by the
// value type. Tree and VarTree name the fixed-key and var-key instances.
package nvtree

import (
	"fmt"
	"sort"
	"sync/atomic"

	"fptree/internal/keycell"
	"fptree/internal/scm"
)

const (
	entryInsert = 1
	entryDelete = 2

	lOffCount = 0
	lOffNext  = 8
	lOffBound = 24 // the leaf's routing bound: a key cell

	mOffMagic    = 0
	mOffKeyMode  = 8
	mOffLeafCap  = 16
	mOffValSize  = 24
	mOffHead     = 32  // head leaf PPtr
	mOffInnerCap = 48  // 0 in an image written before it was recorded: 128
	mOffSplitLog = 64  // PCur, PNew1, PNew2, PPrev — one cache line
	mOffDelLog   = 128 // PCur, PPrev
	metaSize     = 192

	metaMagic = 0x4EF7_EE00_0001
)

// Config tunes the tree.
type Config struct {
	// LeafCap is the number of append slots per leaf (Table 1: 32; the
	// database experiment uses 1024).
	LeafCap int
	// InnerCap is the number of leaf slots per last-level inner node (leaf
	// parent) in DRAM. The metadata block records it, so Open rebuilds with
	// the same capacity.
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

// Index is the single-threaded NV-Tree over keys K and values V.
type Index[K keycell.Key, V any] struct {
	pool *scm.Pool
	kc   keycell.Codec[K]
	vc   vals[V]
	// The leaf layout, fixed at construction: an entry is the flag word —
	// pure overhead — then the key cell and the value. The first entry
	// follows the leaf's routing bound, a key cell between the next pointer
	// and the log. Boundary keys are assigned at split time and never
	// change, so routing stays stable across the inner rebuilds (as in the
	// original NV-Tree, where leaves keep their split keys).
	keySize, entrySize, entriesOff uint64
	leafCap                        int
	plnCap                         int
	meta                           uint64
	size                           int

	// DRAM part: contiguous last-level inner nodes (leaf parents) plus a
	// sorted directory over their max keys. Rebuilt wholesale on overflow
	// and on recovery.
	plns     []pln[K]
	rebuilds uint64 // number of full inner-node rebuilds (pathology counter)

	// Probe counters for the Figure 4 comparison (atomic: the concurrent
	// wrappers run finds in parallel).
	Searches  atomic.Uint64
	KeyProbes atomic.Uint64
}

// Tree is the fixed-size-key NV-Tree; VarTree is the variable-size-key one,
// whose values are ValueSize bytes.
type (
	Tree    = Index[uint64, uint64]
	VarTree = Index[[]byte, []byte]
)

// pln is one leaf parent: capacity-padded arrays, as the NV-Tree's
// contiguous layout preallocates (the source of its DRAM footprint).
type pln[K any] struct {
	maxKey K   // directory key (the last leaf's bound, +infinity allowed)
	seps   []K // per-leaf routing bounds of all leaves but the last
	leaves []uint64
}

// vals is how an entry holds its value, chosen by the value type: a word
// that rides in the persist of the entry's header, or a ValueSize-byte field
// persisted after the key.
type vals[V any] interface {
	size() uint64
	read(p *scm.Pool, off uint64) V
	// stage writes a value that joins the header persist and returns the
	// bytes it adds to it; a value that does not join writes nothing.
	stage(p *scm.Pool, off uint64, v V) uint64
	// publish writes and persists a value stage left out.
	publish(p *scm.Pool, off uint64, v V)
}

func valsFor[V any](valSize int) vals[V] {
	var c any = byteVals(valSize)
	if _, word := any(*new(V)).(uint64); word {
		c = wordVals{}
	}
	return c.(vals[V])
}

type wordVals struct{}

func (wordVals) size() uint64                            { return 8 }
func (wordVals) read(p *scm.Pool, off uint64) uint64     { return p.ReadU64(off) }
func (wordVals) stage(p *scm.Pool, off, v uint64) uint64 { p.WriteU64(off, v); return 8 }
func (wordVals) publish(*scm.Pool, uint64, uint64)       {}

type byteVals int

func (n byteVals) size() uint64                         { return uint64((n + 7) / 8 * 8) }
func (n byteVals) read(p *scm.Pool, off uint64) []byte  { return p.ReadBytes(off, uint64(n)) }
func (byteVals) stage(*scm.Pool, uint64, []byte) uint64 { return 0 }

func (n byteVals) publish(p *scm.Pool, off uint64, v []byte) {
	buf := make([]byte, n)
	copy(buf, v)
	p.WriteBytes(off, buf)
	p.Persist(off, uint64(len(buf)))
}

// newIndex lays out a tree whose metadata block is at meta.
func newIndex[K keycell.Key, V any](pool *scm.Pool, meta uint64, leafCap, valSize, plnCap int) *Index[K, V] {
	kc, vc := keycell.For[K](), valsFor[V](valSize)
	return &Index[K, V]{pool: pool, kc: kc, vc: vc, keySize: kc.Size(), entrySize: 8 + kc.Size() + vc.size(),
		entriesOff: lOffBound + kc.Size(), leafCap: leafCap, plnCap: plnCap, meta: meta}
}

func (t *Index[K, V]) leafSize() uint64 {
	return (t.entriesOff + uint64(t.leafCap)*t.entrySize + scm.LineSize - 1) / scm.LineSize * scm.LineSize
}

// unbounded reports whether a bound read from a leaf is +infinity.
func (t *Index[K, V]) unbounded(bound K) bool { return t.kc.Compare(bound, t.kc.Inf()) == 0 }

// New formats a fixed-size-key NV-Tree.
func New(pool *scm.Pool, cfg Config) (*Tree, error) { return create[uint64, uint64](pool, cfg) }

// NewVar formats a variable-size-key NV-Tree.
func NewVar(pool *scm.Pool, cfg Config) (*VarTree, error) { return create[[]byte, []byte](pool, cfg) }

func create[K keycell.Key, V any](pool *scm.Pool, cfg Config) (*Index[K, V], error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if !pool.Root().IsNull() {
		return nil, fmt.Errorf("nvtree: pool already contains a tree")
	}
	if _, err := pool.AllocRoot(metaSize); err != nil {
		return nil, err
	}
	t := newIndex[K, V](pool, pool.Root().Offset, cfg.LeafCap, cfg.ValueSize, cfg.InnerCap)
	pool.WriteU64(t.meta+mOffMagic, metaMagic)
	pool.WriteU64(t.meta+mOffKeyMode, t.kc.Mode())
	pool.WriteU64(t.meta+mOffLeafCap, uint64(cfg.LeafCap))
	pool.WriteU64(t.meta+mOffValSize, uint64(cfg.ValueSize))
	pool.WriteU64(t.meta+mOffInnerCap, uint64(cfg.InnerCap))
	pool.Persist(t.meta, metaSize)
	return t, nil
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
// inner-node rebuild from the leaf list, with the InnerCap it was created
// with.
func Open(pool *scm.Pool) (*Tree, error) { return open[uint64, uint64](pool) }

// OpenVar recovers a variable-size-key NV-Tree.
func OpenVar(pool *scm.Pool) (*VarTree, error) { return open[[]byte, []byte](pool) }

func open[K keycell.Key, V any](pool *scm.Pool) (*Index[K, V], error) {
	pool.Recover()
	root := pool.Root()
	if root.IsNull() {
		return nil, fmt.Errorf("nvtree: arena has no tree")
	}
	meta := root.Offset
	if pool.ReadU64(meta+mOffMagic) != metaMagic {
		return nil, fmt.Errorf("nvtree: bad metadata magic")
	}
	if pool.ReadU64(meta+mOffKeyMode) != keycell.For[K]().Mode() {
		return nil, fmt.Errorf("nvtree: key mode mismatch")
	}
	innerCap := int(pool.ReadU64(meta + mOffInnerCap))
	if innerCap == 0 {
		innerCap = 128
	}
	t := newIndex[K, V](pool, meta, int(pool.ReadU64(meta+mOffLeafCap)), int(pool.ReadU64(meta+mOffValSize)), innerCap)
	t.recoverLogs()
	t.healTailBound()
	t.rebuildInner()
	return t, nil
}

// healTailBound repairs the one crash window in which a leaf is reachable
// without its "+infinity" routing bound: firstLeaf publishes the initial
// leaf through the head-cell allocation before the bound write persists, so
// a crash in between recovers a linked leaf whose bound still reads zero.
// Everywhere else the construction keeps the list's last leaf unbounded
// (leaves are never removed and splits clamp the upper half), so re-stamping
// the tail is idempotent and must run after micro-log replay settles the
// list.
func (t *Index[K, V]) healTailBound() {
	h := t.head()
	if h.IsNull() {
		return
	}
	l := h.Offset
	for {
		next := t.leafNext(l)
		if next.IsNull() {
			break
		}
		l = next.Offset
	}
	if !t.kc.IsInf(t.pool, l+lOffBound) {
		t.kc.WriteInf(t.pool, l+lOffBound)
	}
}

// Pool returns the backing pool.
func (t *Index[K, V]) Pool() *scm.Pool { return t.pool }

// Len returns the number of live keys.
func (t *Index[K, V]) Len() int { return t.size }

// Rebuilds returns how many full inner-node rebuilds have happened.
func (t *Index[K, V]) Rebuilds() uint64 { return t.rebuilds }

// DRAMBytes estimates the DRAM held by the capacity-padded inner nodes.
func (t *Index[K, V]) DRAMBytes() uint64 {
	var total uint64
	for i := range t.plns {
		total += uint64(cap(t.plns[i].leaves))*8 + t.kc.DRAMBytes(t.plns[i].seps) + 64
	}
	total += uint64(len(t.plns)) * 40 // directory
	return total
}

// --- leaf accessors -----------------------------------------------------------

func (t *Index[K, V]) head() scm.PPtr { return t.pool.ReadPPtr(t.meta + mOffHead) }

func (t *Index[K, V]) setHead(p scm.PPtr) {
	t.pool.WritePPtr(t.meta+mOffHead, p)
	t.pool.Persist(t.meta+mOffHead, scm.PPtrSize)
}

func (t *Index[K, V]) leafCount(l uint64) int     { return int(t.pool.ReadU64(l + lOffCount)) }
func (t *Index[K, V]) leafNext(l uint64) scm.PPtr { return t.pool.ReadPPtr(l + lOffNext) }
func (t *Index[K, V]) leafBound(l uint64) K       { return t.kc.Bound(t.pool, l+lOffBound) }

func (t *Index[K, V]) setLeafNext(l uint64, p scm.PPtr) {
	t.pool.WritePPtr(l+lOffNext, p)
	t.pool.Persist(l+lOffNext, scm.PPtrSize)
}

func (t *Index[K, V]) entryOff(l uint64, i int) uint64 {
	return l + t.entriesOff + uint64(i)*t.entrySize
}

// An entry is flag word, key cell, value.
func (t *Index[K, V]) entryFlag(l uint64, i int) uint64 { return t.pool.ReadU64(t.entryOff(l, i)) }
func (t *Index[K, V]) entryKey(l uint64, i int) K       { return t.kc.Key(t.pool, t.entryOff(l, i)+8) }
func (t *Index[K, V]) entryVal(l uint64, i int) V {
	return t.vc.read(t.pool, t.entryOff(l, i)+8+t.keySize)
}

// appendEntry writes one log entry and commits it by bumping the counter —
// the NV-Tree's p-atomic append. The caller guarantees space. One persist
// covers the flag word and the key cell (and a word value): no other persist
// covers the flag, and the count bump must not commit an entry whose flag is
// still only in the cache.
func (t *Index[K, V]) appendEntry(l uint64, flag uint64, k K, v V) error {
	n := t.leafCount(l)
	if n >= t.leafCap {
		panic("nvtree: append to full leaf")
	}
	off := t.entryOff(l, n)
	cell, val := off+8, off+8+t.keySize
	t.pool.WriteU64(off, flag)
	t.kc.Stage(t.pool, cell, k)
	head := val - off + t.vc.stage(t.pool, val, v)
	t.pool.Persist(off, head)
	if err := t.kc.Attach(t.pool, cell, k); err != nil {
		return err
	}
	t.vc.publish(t.pool, val, v)
	t.pool.WriteU64(l+lOffCount, uint64(n+1))
	t.pool.Persist(l+lOffCount, 8)
	return nil
}

// findInLeaf performs the NV-Tree's reverse linear scan: the most recent
// entry for the key decides (insert = live, delete = gone).
func (t *Index[K, V]) findInLeaf(l uint64, k K) (idx int, live bool) {
	t.Searches.Add(1)
	n := t.leafCount(l)
	for i := n - 1; i >= 0; i-- {
		t.KeyProbes.Add(1)
		if t.kc.Equal(t.pool, t.entryOff(l, i)+8, k) {
			return i, t.entryFlag(l, i) == entryInsert
		}
	}
	return -1, false
}

// liveEntries returns the leaf's live (key -> latest entry index) pairs in
// ascending key order.
func (t *Index[K, V]) liveEntries(l uint64) (idxs []int) {
	n := t.leafCount(l)
	first := t.kc.NewSet(n)
	for i := n - 1; i >= 0; i-- {
		if first(t.entryKey(l, i)) && t.entryFlag(l, i) == entryInsert {
			idxs = append(idxs, i)
		}
	}
	sort.Slice(idxs, func(x, y int) bool { return t.kc.Compare(t.entryKey(l, idxs[x]), t.entryKey(l, idxs[y])) < 0 })
	return idxs
}
