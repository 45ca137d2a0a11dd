package core

import (
	"fmt"

	"fptree/internal/htm"
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
//	 80  headGroup  PPtr  top of the stack of leaf groups
//	 96  fanout     u64   Config.InnerFanout, which recovery rebuilds with
//	104  keyBlocks  u64   1 from before the first key-block publish on; it
//	                      shares headLeaf's line (engine.markKeyBlocks)
//	112  reserved   16 B  zero
//	128  reserved   64 B  zero (v5: the getLeaf micro-log)
//	192  freeLeafLog (PCurrentGroup, PPrevGroup)   — own cache line
//	256  splitLogs   numLogs × 64B (PCurrentLeaf, PNewLeaf)
//	...  deleteLogs  numLogs × 64B (PCurrentLeaf, PPrevLeaf, PHandLeft)
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
// from the middle of other slots; version 6 keeps the leaf layout and makes
// the group list a stack pushed by the allocator alone (groups.go), where a
// version-5 tree may hold a half-linked group in its getLeaf log and a tail
// pointer nothing maintains any more; version 7 keeps each leaf's high key
// behind its next pointer and a key-blocks flag beside its lock byte, and
// recovery takes the separators from the high keys (layout.go,
// recovery.go), where a version-6 leaf holds neither — its bytes there are
// padding, or a var leaf's first slot; version 8 drops the leaf's lock and
// flags word and keeps one key-blocks word per tree here, where a version-7
// leaf keeps its next pointer 8 bytes further out. There is one reader: a
// tree of another version is refused at open.
const (
	metaMagicBase   = 0xF97B_0000_4EAF_0000
	metaVersionMask = 0xFFFF
	layoutVersion   = 8
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
	mOffInnerFanout = 96
	mOffKeyBlocks   = 104
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
	p.WriteU64(m.base+mOffInnerFanout, uint64(cfg.InnerFanout))
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
		Variant:     Variant(pool.ReadU64(m.base + mOffVariant)),
		LeafCap:     int(pool.ReadU64(m.base + mOffLeafCap)),
		InnerFanout: int(pool.ReadU64(m.base + mOffInnerFanout)),
		GroupSize:   int(pool.ReadU64(m.base + mOffGroupSize)),
		ValueSize:   int(pool.ReadU64(m.base + mOffValueSize)),
		NumLogs:     int(pool.ReadU64(m.base + mOffNumLogs)),
	}
	m.nLogs = cfg.NumLogs
	return m, cfg, nil
}

func (m meta) keyBlocks() bool { return m.pool.ReadU64(m.base+mOffKeyBlocks) != 0 }

// Micro-log accessors. Each log is a pair of persistent-pointer cells in one
// cache line: cell 0 names the element an operation works on (PCurrentLeaf,
// PCurrentGroup), cell 1 its partner (PNewLeaf, PPrevLeaf, PPrevGroup). A
// delete log has a third cell, PHandLeft, which names the leaf too when its
// unlink hands the leaf's high key to PPrevLeaf (plist.unlink). Index i <
// nLogs selects a split log, the delete logs follow.

func (m meta) freeLeafLog() scm.MicroLog { return m.pool.MicroLog(m.base+mOffFreeLeafLog, 2) }
func (m meta) splitLog(i int) scm.MicroLog {
	return m.pool.MicroLog(m.base+mOffLogs+uint64(i)*scm.LineSize, 2)
}
func (m meta) deleteLog(i int) scm.MicroLog {
	return m.pool.MicroLog(m.base+mOffLogs+uint64(m.nLogs+i)*scm.LineSize, 3)
}

// plist is a persistent singly linked list anchored in the metadata block:
// the PPtr cell at head points at the first element, and every element keeps
// its successor's PPtr at byte next, followed by high bytes of the element's
// own (a leaf's high key; none for a group). The leaves form one list, the
// leaf groups another, and both leave it through unlink. Its head test runs
// under lock, taken through cc.
type plist struct {
	pool *scm.Pool
	head uint64 // offset of the head cell
	next uint64 // offset of the next pointer within an element
	high uint64 // bytes behind the next pointer an unlink may hand to prev
	cc   concurrency
	lock *htm.VersionLock
}

func (l plist) first() scm.PPtr            { return l.pool.ReadPPtr(l.head) }
func (l plist) after(elem uint64) scm.PPtr { return l.pool.ReadPPtr(elem + l.next) }
func (l plist) ptr(elem uint64) scm.PPtr   { return scm.PPtr{ArenaID: l.pool.ID(), Offset: elem} }

func (l plist) setFirst(p scm.PPtr)              { l.set(l.head, p) }
func (l plist) setAfter(elem uint64, p scm.PPtr) { l.set(elem+l.next, p) }

func (l plist) set(off uint64, p scm.PPtr) {
	l.pool.WritePPtr(off, p)
	l.pool.Persist(off, scm.PPtrSize)
}

// handLeft makes prev's next pointer and high bytes elem's, in one write of
// the line they share and one persist: prev takes over elem's successor and
// the key range up to elem's high key.
func (l plist) handLeft(prev, elem uint64) {
	var b [scm.PPtrSize + maxHighSize]byte
	nh := b[:scm.PPtrSize+l.high]
	l.pool.ReadInto(elem+l.next, nh)
	l.pool.WriteBytes(prev+l.next, nh)
	l.pool.Persist(prev+l.next, uint64(len(nh)))
}

// unlink removes elem from the list under log and hands it to release
// (Algorithms 6 and 12): log names elem, then either the head cell moves past
// it or, once log also names prev, prev's next pointer does — and, when left
// is set, prev's high bytes become elem's in the same write (handLeft). A
// left hand-over needs a log of three cells: cell 2 names elem, durable with
// cell 1 before handLeft writes, so recoverUnlink knows to redo it. release
// runs before log is reset, so recoverUnlink can redo it. prev and left are
// ignored when elem is the head.
func (l plist) unlink(log scm.MicroLog, elem, prev uint64, left bool, release func(scm.MicroLog)) {
	log.Set(0, l.ptr(elem))
	l.cc.lockNode(l.lock)
	isHead := l.first().Offset == elem
	if isHead {
		l.setFirst(l.after(elem))
	}
	l.cc.unlockNodeNoBump(l.lock)
	if !isHead {
		if left {
			l.pool.WritePPtr(log.Off(1), l.ptr(prev))
			l.pool.WritePPtr(log.Off(2), l.ptr(elem))
			l.pool.Persist(log.Off(1), 2*scm.PPtrSize)
			l.handLeft(prev, elem)
		} else {
			log.Set(1, l.ptr(prev))
			l.setAfter(prev, l.after(elem))
		}
	}
	release(log)
	log.Reset()
}

// recoverUnlink finishes, from persistent state alone, an unlink a crash
// interrupted (Algorithms 7 and 13). It redoes prev's next pointer and, when
// the log says the unlink handed left, prev's high bytes with it (handLeft):
// a torn line can keep the new next pointer and part of a high key, which for
// a var key's cell and length word reads as a key neither leaf had. elem's
// line still holds what handLeft copies: release writes at most elem's first
// word, and recovery runs before elem is reused. A torn log write that kept
// cell 1 without cell 2 crashed before handLeft began, so prev keeps its old
// high key, which bounds the same keys: until the log is reset prev stays
// locked (or the tree single-threaded), so the range handed over holds none.
func (l plist) recoverUnlink(log scm.MicroLog, release func(scm.MicroLog)) {
	a, b := log.P(0), log.P(1)
	left := l.high > 0 && !log.P(2).IsNull()
	if a.IsNull() {
		if !b.IsNull() || left {
			log.Reset()
		}
		return
	}
	switch head := l.first(); {
	case !b.IsNull():
		// Crashed between the prev-link update and the release: redo both.
		if left {
			l.handLeft(b.Offset, a.Offset)
		} else {
			l.setAfter(b.Offset, l.after(a.Offset))
		}
		release(log)
	case a == head:
		// Crashed before the head pointer moved.
		l.setFirst(l.after(a.Offset))
		release(log)
	case l.after(a.Offset) == head:
		// Head already moved; only the release is missing.
		release(log)
	default:
		// Only the micro-log itself was written: nothing durable changed.
	}
	log.Reset()
}
