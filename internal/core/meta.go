package core

import (
	"fmt"

	"fptree/internal/scm"
)

// Persistent tree-metadata block. It is allocated from the pool at creation
// time and anchored in the arena header's root pointer, so the whole tree is
// reachable from one well-known location after a restart.
//
// Layout (offsets relative to the block):
//
//	  0  magic      u64   metaMagicBase | leaf-layout version
//	  8  status     u64   1 once initialization finished (Algorithm 9, line 1)
//	 56  variant    u64   0 FPTree, 1 PTree
//	 16  keyKind    u64   0 fixed-size keys, 1 variable-size keys
//	 24  leafCap    u64
//	 32  groupSize  u64   0 when leaf groups are disabled
//	 40  valueSize  u64
//	 48  numLogs    u64
//	 64  headLeaf   PPtr  head of the linked list of leaves
//	 80  headGroup  PPtr  head of the linked list of leaf groups
//	 96  tailGroup  PPtr  tail of the linked list of leaf groups
//	128  getLeafLog  (PNewGroup PPtr)              — own cache line
//	192  freeLeafLog (PCurrentGroup, PPrevGroup)   — own cache line
//	256  splitLogs   numLogs × 64B (PCurrentLeaf, PNewLeaf)
//	...  deleteLogs  numLogs × 64B (PCurrentLeaf, PPrevLeaf)
//
// Each micro-log occupies its own cache line, which the paper requires so
// that back-to-back writes to one log can be persisted together.
//
// The magic's low 16 bits are the leaf-layout version. Version 1 started the
// slot array right behind the next pointer (byte 88 at LeafCap 56); version 2
// rounds that offset up to the slot alignment (layout.go); version 3 keeps
// the geometry and stores variable-size keys of at most 16 bytes in the slot's
// key cell, where a version-2 tree holds a pointer whatever the length — its
// short keys would be read as their own pointers' bytes; version 4 keeps the
// geometry again and puts the value's length in the high half of a var slot's
// length word, where a version-3 tree holds zero and pads the value to the
// field — its values would all be read as empty; version 5 splits a var slot
// wider than a line into a line-aligned head (cell, length word, the value's
// first 40 bytes) and a tail behind the head array (layout.go), where a
// version-4 tree keeps each 152-byte slot whole — its cells would be read
// from the middle of other slots. There is one reader: a tree of another
// version is refused at open.
const (
	metaMagicBase   = 0xF97B_0000_4EAF_0000
	metaVersionMask = 0xFFFF
	layoutVersion   = 5
	metaMagic       = metaMagicBase | layoutVersion
	mOffMagic       = 0
	mOffStatus      = 8
	mOffKeyKind     = 16
	mOffLeafCap     = 24
	mOffGroupSize   = 32
	mOffValueSize   = 40
	mOffNumLogs     = 48
	mOffVariant     = 56
	mOffHeadLeaf    = 64
	mOffHeadGroup   = 80
	mOffTailGroup   = 96
	mOffGetLeafLog  = 128
	mOffFreeLeafLog = 192
	mOffLogs        = 256

	keyKindFixed = 0
	keyKindVar   = 1
)

// meta wraps offset arithmetic over the metadata block.
type meta struct {
	pool  *scm.Pool
	base  uint64
	nLogs int
}

func metaSize(numLogs int) uint64 { return mOffLogs + uint64(numLogs)*2*scm.LineSize }

// createMeta allocates and formats a metadata block, anchoring it in the
// arena root. The status flag is set only after everything else is durable,
// mirroring the tree-initialization check in Algorithm 9.
func createMeta(pool *scm.Pool, keyKind uint64, cfg Config) (meta, error) {
	if _, err := pool.AllocRoot(metaSize(cfg.NumLogs)); err != nil {
		return meta{}, fmt.Errorf("fptree: allocating metadata: %w", err)
	}
	m := meta{pool: pool, base: pool.Root().Offset, nLogs: cfg.NumLogs}
	p := pool
	p.WriteU64(m.base+mOffMagic, metaMagic)
	p.WriteU64(m.base+mOffKeyKind, keyKind)
	p.WriteU64(m.base+mOffLeafCap, uint64(cfg.LeafCap))
	p.WriteU64(m.base+mOffGroupSize, uint64(cfg.GroupSize))
	p.WriteU64(m.base+mOffValueSize, uint64(cfg.ValueSize))
	p.WriteU64(m.base+mOffNumLogs, uint64(cfg.NumLogs))
	p.WriteU64(m.base+mOffVariant, uint64(cfg.Variant))
	p.Persist(m.base, mOffLogs)
	p.WriteU64(m.base+mOffStatus, 1)
	p.Persist(m.base+mOffStatus, 8)
	return m, nil
}

// HasTree reports whether the pool's arena already holds a fully initialized
// tree of any variant. It runs allocator recovery first (idempotent, and
// required before the root pointer may be trusted), so callers with a freshly
// reopened arena — e.g. memkv deciding between Create and Open on a -data
// file — can use it directly.
//
// A tree written with another leaf-layout version counts: the caller's Open
// then fails with checkMagic's error, instead of a Create failing on a
// non-empty arena.
func HasTree(pool *scm.Pool) bool {
	pool.Recover()
	root := pool.Root()
	if root.IsNull() {
		return false
	}
	return pool.ReadU64(root.Offset+mOffMagic)&^metaVersionMask == metaMagicBase &&
		pool.ReadU64(root.Offset+mOffStatus) == 1
}

// checkMagic accepts exactly this build's metadata magic and names both
// versions when the block belongs to a tree with another leaf layout.
func checkMagic(got uint64) error {
	switch {
	case got == metaMagic:
		return nil
	case got&^metaVersionMask == metaMagicBase:
		return fmt.Errorf("fptree: tree has leaf layout v%d, this build reads v%d", got&metaVersionMask, layoutVersion)
	}
	return fmt.Errorf("fptree: bad metadata magic %#x", got)
}

// openMeta locates an existing metadata block through the arena root and
// validates it against the expected key kind.
func openMeta(pool *scm.Pool, wantKind uint64) (meta, Config, error) {
	root := pool.Root()
	if root.IsNull() {
		return meta{}, Config{}, fmt.Errorf("fptree: arena has no tree (null root)")
	}
	m := meta{pool: pool, base: root.Offset}
	if err := checkMagic(pool.ReadU64(m.base + mOffMagic)); err != nil {
		return meta{}, Config{}, err
	}
	if pool.ReadU64(m.base+mOffStatus) != 1 {
		return meta{}, Config{}, fmt.Errorf("fptree: tree initialization never completed")
	}
	if got := pool.ReadU64(m.base + mOffKeyKind); got != wantKind {
		return meta{}, Config{}, fmt.Errorf("fptree: key kind mismatch: arena has %d, caller wants %d", got, wantKind)
	}
	cfg := Config{
		Variant:   Variant(pool.ReadU64(m.base + mOffVariant)),
		LeafCap:   int(pool.ReadU64(m.base + mOffLeafCap)),
		GroupSize: int(pool.ReadU64(m.base + mOffGroupSize)),
		ValueSize: int(pool.ReadU64(m.base + mOffValueSize)),
		NumLogs:   int(pool.ReadU64(m.base + mOffNumLogs)),
	}
	m.nLogs = cfg.NumLogs
	return m, cfg, nil
}

func (m meta) headLeaf() scm.PPtr  { return m.pool.ReadPPtr(m.base + mOffHeadLeaf) }
func (m meta) headGroup() scm.PPtr { return m.pool.ReadPPtr(m.base + mOffHeadGroup) }
func (m meta) tailGroup() scm.PPtr { return m.pool.ReadPPtr(m.base + mOffTailGroup) }

func (m meta) setHeadLeaf(p scm.PPtr) {
	m.pool.WritePPtr(m.base+mOffHeadLeaf, p)
	m.pool.Persist(m.base+mOffHeadLeaf, scm.PPtrSize)
}

func (m meta) setHeadGroup(p scm.PPtr) {
	m.pool.WritePPtr(m.base+mOffHeadGroup, p)
	m.pool.Persist(m.base+mOffHeadGroup, scm.PPtrSize)
}

func (m meta) setTailGroup(p scm.PPtr) {
	m.pool.WritePPtr(m.base+mOffTailGroup, p)
	m.pool.Persist(m.base+mOffTailGroup, scm.PPtrSize)
}

// Micro-log accessors. A micro-log is a pair of persistent-pointer cells in
// one cache line; index i < nLogs selects a split log, the delete logs follow.

func (m meta) splitLogOff(i int) uint64 {
	return m.base + mOffLogs + uint64(i)*scm.LineSize
}

func (m meta) deleteLogOff(i int) uint64 {
	return m.base + mOffLogs + uint64(m.nLogs+i)*scm.LineSize
}

// mlog is a generic two-pointer micro-log at a fixed SCM offset. Field A is
// the first persistent pointer (PCurrentLeaf / PNewGroup / PCurrentGroup),
// field B the second (PNewLeaf / PPrevLeaf / PPrevGroup).
type mlog struct {
	pool *scm.Pool
	off  uint64
}

func (l mlog) a() scm.PPtr { return l.pool.ReadPPtr(l.off) }
func (l mlog) b() scm.PPtr { return l.pool.ReadPPtr(l.off + scm.PPtrSize) }

// aOff and bOff expose the cells themselves so they can serve as the
// allocator's owning reference during Alloc/Free.
func (l mlog) aOff() uint64 { return l.off }
func (l mlog) bOff() uint64 { return l.off + scm.PPtrSize }

func (l mlog) setA(p scm.PPtr) {
	l.pool.WritePPtr(l.off, p)
	l.pool.Persist(l.off, scm.PPtrSize)
}

func (l mlog) setB(p scm.PPtr) {
	l.pool.WritePPtr(l.off+scm.PPtrSize, p)
	l.pool.Persist(l.off+scm.PPtrSize, scm.PPtrSize)
}

// reset nulls both cells with a single flush — they share a cache line.
func (l mlog) reset() {
	l.pool.WritePPtr(l.off, scm.PPtr{})
	l.pool.WritePPtr(l.off+scm.PPtrSize, scm.PPtr{})
	l.pool.Persist(l.off, 2*scm.PPtrSize)
}

func (m meta) getLeafLog() mlog     { return mlog{m.pool, m.base + mOffGetLeafLog} }
func (m meta) freeLeafLog() mlog    { return mlog{m.pool, m.base + mOffFreeLeafLog} }
func (m meta) splitLog(i int) mlog  { return mlog{m.pool, m.splitLogOff(i)} }
func (m meta) deleteLog(i int) mlog { return mlog{m.pool, m.deleteLogOff(i)} }
