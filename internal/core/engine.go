package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"fptree/internal/htm"
	"fptree/internal/obs"
	"fptree/internal/obs/trace"
	"fptree/internal/scm"
)

// engine is the one FPTree implementation. Everything the paper describes —
// fingerprint-filtered leaf search, unsorted leaves committed by a p-atomic
// bitmap, micro-logged splits and deletes, recovery, inner-node rebuild,
// scans — lives here exactly once, parameterized by a codec (fixed u64 keys
// vs. variable []byte keys, see codec.go) and a concurrency controller
// (single-threaded no-ops vs. speculative validated descent, see
// concurrency.go). Index (index.go) is its one exported face: the key type
// picks the codec, the constructor the controller.
//
// The DRAM inner structure is always the concurrent cInner node: with the
// no-op controller every validation succeeds on the first try, so the
// single-threaded trees pay only an atomic load per hop.
type engine[K, V any] struct {
	pool *scm.Pool
	cfg  Config
	m    meta
	cdc  codec[K, V]
	cc   concurrency
	st   bool // single-threaded (cc is the no-op controller)
	sh   leafShape

	anchor htm.VersionLock
	root   atomic.Pointer[cInner[K]]

	// headLock orders the live accesses to the persistent list-head
	// pointer: a leaf delete tests it and may move it while other deletes
	// test it, and the first insert into an empty tree sets it, which must
	// wait for the delete that emptied the tree to finish unlinking the last
	// leaf. It is taken through cc like a node lock, so it is free on the
	// single-threaded trees and its waiters watch the crash flag. Recovery
	// and the quiesced checks read the pointer without it.
	headLock htm.VersionLock
	// keyBlocks mirrors the metadata block's key-blocks word.
	keyBlocks atomic.Bool

	leafList plist    // the persistent leaf list, headed by meta's headLeaf
	splitQ   chan int // free split micro-log indices
	deleteQ  chan int // free delete micro-log indices

	groups     groupAlloc // leaf-group management (single-threaded only)
	recovering bool       // true while micro-logs are being replayed

	// Ops counts in-leaf search and structure-modification events (atomic, so
	// shared across goroutines and metric scrapes).
	Ops OpStats
	// Stats counts optimistic aborts and restarts, mirroring TSX event
	// counters. Only the concurrent controller produces them.
	Stats htm.Stats

	// tr samples operations into latency-attribution spans; nil (default)
	// disables tracing. See SetTracer (trace.go).
	tr *trace.Tracer

	// ctrl holds the retry budget and the fallback lock. Every concurrent
	// engine has one; the single-threaded engines never abort and keep nil.
	// See controller.go.
	ctrl *htm.AdaptiveController

	// onWaitTurn, set only by tests, runs at the start of every turn of
	// waitLeaf, so a test can order a waiter's turns against the holder.
	onWaitTurn func()

	size atomic.Int64
}

func newEngine[K, V any](pool *scm.Pool, cfg Config, m meta, cdc codec[K, V], cc concurrency) *engine[K, V] {
	e := &engine[K, V]{pool: pool, cfg: cfg, m: m, cdc: cdc, cc: cc, st: !cc.concurrent(), sh: cdc.shape()}
	e.leafList = plist{pool, m.base + mOffHeadLeaf, e.sh.offNext, e.sh.highSize, cc, &e.headLock}
	e.groups.init(m, plist{pool, m.base + mOffHeadGroup, 0, 0, cc, &e.headLock}, e.sh.size, cfg.GroupSize)
	e.splitQ = make(chan int, cfg.NumLogs)
	e.deleteQ = make(chan int, cfg.NumLogs)
	for i := 0; i < cfg.NumLogs; i++ {
		e.splitQ <- i
		e.deleteQ <- i
	}
	e.root.Store(newCInner[K](e.maxKids(), true))
	if !e.st {
		e.ctrl = htm.NewAdaptiveController(htm.AdaptiveConfig{})
	}
	return e
}

// checkConcurrentCfg rejects configurations the concurrent controller cannot
// run: the PTree variant has no concurrent implementation, and leaf groups
// are a central synchronization point that hinders scalability (§4.3), so
// they are forced off.
func checkConcurrentCfg(cc concurrency, cfg *Config) error {
	if !cc.concurrent() {
		return nil
	}
	if cfg.Variant != VariantFPTree {
		return fmt.Errorf("fptree: only the FPTree variant has a concurrent implementation")
	}
	cfg.GroupSize = 0
	return nil
}

func createEngine[K, V any](pool *scm.Pool, cfg Config, cc concurrency) (*engine[K, V], error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := checkConcurrentCfg(cc, &cfg); err != nil {
		return nil, err
	}
	if !pool.Root().IsNull() {
		return nil, fmt.Errorf("fptree: pool already contains a tree")
	}
	m, err := createMeta(pool, keyKindOf[K](), cfg)
	if err != nil {
		return nil, err
	}
	return newEngine(pool, cfg, m, newCodec[K, V](pool, cfg), cc), nil
}

// openEngine recovers a tree from a pool that survived a crash or restart:
// it replays the allocator intent and every micro-log, runs the codec's leak
// scan, then rebuilds the DRAM-resident inner nodes and the volatile
// free-leaf vector (Algorithm 9). Leaf locks are "reset" by building fresh
// handles. rec sets how many goroutines scan the leaves; the recovered arena
// is byte-identical for every count (see RecoveryOptions).
func openEngine[K, V any](pool *scm.Pool, cc concurrency, rec RecoveryOptions) (*engine[K, V], error) {
	pool.Recover()
	m, cfg, err := openMeta(pool, keyKindOf[K]())
	if err != nil {
		return nil, err
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := checkConcurrentCfg(cc, &cfg); err != nil {
		return nil, err
	}
	e := newEngine(pool, cfg, m, newCodec[K, V](pool, cfg), cc)
	e.recovering = true
	for i := 0; i < cfg.NumLogs; i++ {
		e.recoverSplit(m.splitLog(i))
		e.leafList.recoverUnlink(m.deleteLog(i), e.releaseLeaf) // Algorithm 7
	}
	e.groups.recover()
	e.keyBlocks.Store(m.keyBlocks())
	e.rebuild(rec.workers())
	e.recovering = false
	return e, nil
}

// Pool returns the SCM pool backing the tree.
func (e *engine[K, V]) Pool() *scm.Pool { return e.pool }

// Len returns the number of live keys.
func (e *engine[K, V]) Len() int { return int(e.size.Load()) }

// Height returns the number of inner-node levels above the leaves (0 for an
// empty tree).
func (e *engine[K, V]) Height() int {
	n := e.root.Load()
	if n.cnt.Load() == 0 {
		return 0
	}
	h := 0
	for {
		h++
		if n.leafParent {
			return h
		}
		n = n.kids[0].Load()
	}
}

func (e *engine[K, V]) maxKids() int { return e.cfg.InnerFanout + 1 }

func (e *engine[K, V]) fullBitmap() uint64 {
	if e.sh.cap == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << e.sh.cap) - 1
}

// RegisterMetrics exposes the tree's operation counters on reg under the
// "fptree" prefix, plus the emulated-HTM concurrency counters under "htm"
// for the concurrent variants.
func (e *engine[K, V]) RegisterMetrics(reg *obs.Registry) {
	e.Ops.RegisterMetrics(reg, "fptree")
	if !e.st {
		e.Stats.RegisterMetrics(reg, "htm")
		e.ctrl.RegisterMetrics(reg, "htm")
	}
}

// --- leaf persistence helpers -----------------------------------------------

func (e *engine[K, V]) leafBitmap(leaf uint64) uint64 { return e.pool.ReadU64(leaf + e.sh.offBitmap) }

// persistLeafHeader commits a new validity bitmap with one p-atomic 8-byte
// store + flush. Every bitmap write in the engine goes through here, so all
// variants get identical (and countable) flush behavior.
func (e *engine[K, V]) persistLeafHeader(leaf, bm uint64) {
	e.pool.WriteU64(leaf+e.sh.offBitmap, bm)
	e.pool.Persist(leaf+e.sh.offBitmap, 8)
}

// commitSlot makes slot valid: it writes the fingerprint and commits the new
// bitmap. When the fingerprint array and the bitmap share the leaf's first
// cache line (leafCap <= 56, the paper's default geometry), one flush + fence
// covers both: a torn crash commits 8-byte word prefixes of the line, and the
// bitmap is the line's last word, so a committed bitmap implies a committed
// fingerprint. When they do not share a line (leafCap 57..64), the
// fingerprint must be durable before the bitmap byte is even written —
// a torn crash commits prefixes of all dirty lines independently, so having
// both lines dirty at once could expose a valid bit with a stale fingerprint.
func (e *engine[K, V]) commitSlot(leaf uint64, slot int, key K, bm uint64) {
	if !e.sh.hasFP {
		e.persistLeafHeader(leaf, bm)
		return
	}
	e.pool.WriteU8(leaf+uint64(slot), e.cdc.fingerprint(key))
	if e.sh.offBitmap+8 <= scm.LineSize {
		e.pool.WriteU64(leaf+e.sh.offBitmap, bm)
		e.pool.Persist(leaf+uint64(slot), e.sh.offBitmap+8-uint64(slot))
		return
	}
	e.pool.Persist(leaf+uint64(slot), 1)
	e.persistLeafHeader(leaf, bm)
}

// findInLeaf is the fingerprint-filtered leaf search of Section 4.2. The
// fingerprint array and the validity bitmap are read in ONE batched header
// load; only keys whose fingerprint matches are dereferenced. It returns
// the slot, the bitmap it observed (so callers do not re-read it), and
// whether the key was found.
func (e *engine[K, V]) findInLeaf(leaf uint64, key K) (int, uint64, bool) {
	if !e.sh.hasFP {
		// PTree variant: plain linear scan over the valid keys.
		bm := e.leafBitmap(leaf)
		slot, probes := -1, uint64(0)
		for s := 0; s < e.sh.cap; s++ {
			if bm&(1<<s) == 0 {
				continue
			}
			probes++
			if e.cdc.slotKeyEquals(leaf, s, key) {
				slot = s
				break
			}
		}
		e.Ops.noteSearch(leaf, 0, 0, 0, probes)
		return slot, bm, slot >= 0
	}
	var hdr [MaxLeafCap + 16]byte
	h := hdr[:e.sh.offBitmap+8]
	e.pool.ReadInto(leaf, h)
	bm := binary.LittleEndian.Uint64(h[e.sh.offBitmap:])
	fp := e.cdc.fingerprint(key)
	slot := -1
	var compares, hits, falsePos uint64
	for s := 0; s < e.sh.cap; s++ {
		if bm&(1<<s) == 0 {
			continue
		}
		compares++
		if h[s] != fp {
			continue
		}
		hits++
		if e.cdc.slotKeyEquals(leaf, s, key) {
			slot = s
			break
		}
		falsePos++
	}
	e.Ops.noteSearch(leaf, compares, hits, falsePos, hits)
	return slot, bm, slot >= 0
}

// insertIntoLeaf writes (key, value) into the first free slot of ref's leaf
// and commits with the p-atomic bitmap store (Algorithm 2 lines 12-15 /
// Algorithm 14 lines 12-18). A crash before the bitmap flush leaves the
// insert invisible; after it, complete.
func (e *engine[K, V]) insertIntoLeaf(ref *leafRef, bm uint64, key K, value V) error {
	slot := bits.TrailingZeros64(^bm)
	if e.cdc.ownsBlock(key) {
		e.markKeyBlocks()
	}
	if err := e.cdc.writeSlot(ref.off, slot, key, value, -1); err != nil {
		return err
	}
	e.commitSlot(ref.off, slot, key, bm|(1<<slot))
	return nil
}

// markKeyBlocks makes the tree's key-blocks word durable before its first
// key-block publish: one persist in the tree's life, and a load of one bool
// on every later pointer-key write. The word shares the line of the list's
// head pointer, so it is written under headLock, like every live write of
// that line.
func (e *engine[K, V]) markKeyBlocks() {
	if e.keyBlocks.Load() {
		return
	}
	e.cc.lockNode(&e.headLock)
	if !e.keyBlocks.Load() {
		e.pool.WriteU64(e.m.base+mOffKeyBlocks, 1)
		e.pool.Persist(e.m.base+mOffKeyBlocks, 8)
		e.keyBlocks.Store(true)
	}
	e.cc.unlockNodeNoBump(&e.headLock)
}

// --- optimistic descent -------------------------------------------------------

// bound is an optional key: a window edge or a separator picked up during a
// descent. ok=false means "unbounded".
type bound[K any] struct {
	key K
	ok  bool
}

// separators are the innermost separators a descent passed on either side:
// every key of the reached leaf lies in (lb, ub]. A separator is the max key
// its left subtree held when it was created, so descending to lb lands
// exactly one leaf to the left and descending to the successor of ub one
// leaf to the right — the two steps every range read and the leaf-delete
// neighbor hunt are made of. Deeper separators are tighter by construction,
// so each level simply overwrites the one above.
type separators[K any] struct{ lb, ub bound[K] }

// note records the separators around child i of n. It returns false on a
// torn read (nil key), which the caller treats as a failed validation.
func (s *separators[K]) note(n *cInner[K], i int) bool {
	if i > 0 {
		kp := n.keys[i-1].Load()
		if kp == nil {
			return false
		}
		s.lb = bound[K]{*kp, true}
	}
	if i < int(n.cnt.Load())-1 {
		kp := n.keys[i].Load()
		if kp == nil {
			return false
		}
		s.ub = bound[K]{*kp, true}
	}
	return true
}

// descend is the engine's one walk through the inner nodes (Figure 6: the
// traversal is the HTM-transaction part; with the no-op controller it
// degenerates to a plain B-tree descent). It goes to the leaf covering
// *target, or with a nil target to the leftmost (rightmost=false) or
// rightmost leaf. A non-nil sep receives the separators around the reached
// leaf; point operations pass nil and pay one predictable branch per level.
// On success it returns the leaf parent with its version snapshot and the
// leaf handle; ok=false means a conflict was observed and the caller must
// restart. ref==nil means the tree is empty.
func (e *engine[K, V]) descend(target *K, rightmost bool, sep *separators[K]) (n *cInner[K], ver uint64, ref *leafRef, ok bool) {
	av := e.cc.readBegin(&e.anchor)
	n = e.root.Load()
	ver = e.cc.readBegin(&n.lock)
	if !e.cc.validate(&e.anchor, av) {
		return nil, 0, nil, false
	}
	if sep != nil {
		*sep = separators[K]{}
	}
	var tp uint64 // the target's prefix, once per descent
	if target != nil {
		tp = e.cdc.prefix(*target)
	}
	for {
		i := 0
		if target != nil {
			var sok bool
			if i, sok = n.search(*target, tp, e.sh.exactPfx, e.cdc.less); !sok {
				return nil, 0, nil, false
			}
		} else if rightmost {
			i = max(int(n.cnt.Load())-1, 0)
		}
		if sep != nil && !sep.note(n, i) {
			return nil, 0, nil, false
		}
		if !e.cc.validate(&n.lock, ver) {
			return nil, 0, nil, false
		}
		if n.leafParent {
			if n.cnt.Load() == 0 {
				return n, ver, nil, true // empty tree
			}
			r := n.leaves[i].Load()
			if r == nil || !e.cc.validate(&n.lock, ver) {
				return nil, 0, nil, false
			}
			return n, ver, r, true
		}
		child := n.kids[i].Load()
		if child == nil || !e.cc.validate(&n.lock, ver) {
			return nil, 0, nil, false
		}
		cver := e.cc.readBegin(&child.lock)
		if !e.cc.validate(&n.lock, ver) {
			return nil, 0, nil, false
		}
		n, ver = child, cver
	}
}

// acquireLeaf is the search-lock-validate prologue every operation shares
// (Figure 6): descend optimistically, lock the reached leaf, and revalidate
// the leaf parent, retrying with a cause-tagged abort until all three
// succeed. fb selects the lock: nil takes the shared lock (readers never
// look at the fallback lock); a writer passes its fallback flag and gets the
// exclusive lock, entering the global fallback once its retry budget is
// spent (the caller releases it when the operation completes). A lost race
// for the leaf lock waits for the holder before the next attempt; the other
// aborts only yield, and readBegin already waits out a locked inner node.
// The span is in PhaseDescend while this runs and in PhaseLeaf when it
// returns a locked leaf. It returns the leaf parent and the leaf handle; a
// nil handle means the tree is empty, and the node is then the empty root.
func (e *engine[K, V]) acquireLeaf(target *K, rightmost bool, sep *separators[K], fb *bool, sp *trace.Span) (*cInner[K], *leafRef) {
	for attempt := 0; ; attempt++ {
		if fb != nil {
			e.maybeFallback(attempt, fb, sp)
		}
		sp.Enter(trace.PhaseDescend)
		n, ver, ref, ok := e.descend(target, rightmost, sep)
		if !ok {
			e.abortc(htm.AbortDescend, sp, 0)
			runtime.Gosched()
			continue
		}
		if ref == nil {
			return n, nil
		}
		if !e.lockLeafCC(ref, fb) {
			e.abortc(htm.AbortLeafLock, sp, ref.off)
			if fb == nil || !*fb {
				e.waitLeaf(ref, fb)
			}
			continue
		}
		if ref.dead.Load() || !e.cc.validate(&n.lock, ver) {
			if fb == nil {
				e.cc.rUnlockLeaf(ref)
			} else {
				e.cc.unlockLeaf(ref)
			}
			e.abortc(htm.AbortPostLock, sp, ref.off)
			runtime.Gosched()
			continue
		}
		sp.Enter(trace.PhaseLeaf)
		return n, ref
	}
}

// findLeafRef retries descend until it succeeds and returns the handle of
// the leaf covering key (nil for an empty tree), without locking it. Used by
// the invariant checks.
func (e *engine[K, V]) findLeafRef(key K) *leafRef {
	for {
		_, _, ref, ok := e.descend(&key, false, nil)
		if ok {
			return ref
		}
		e.abortc(htm.AbortDescend, nil, 0)
		runtime.Gosched()
	}
}

// --- base operations ----------------------------------------------------------

// Find returns the value stored under key (Algorithm 1). The leaf is read
// under its shared lock; a locked or concurrently modified path aborts and
// retries, as a TSX conflict would.
func (e *engine[K, V]) Find(key K) (V, bool) {
	sp := e.tr.Start(trace.OpFind)
	v, found := e.findT(key, sp)
	sp.Finish()
	return v, found
}

func (e *engine[K, V]) findT(key K, sp *trace.Span) (v V, found bool) {
	_, ref := e.acquireLeaf(&key, false, nil, nil, sp)
	if ref == nil {
		return v, false // empty tree
	}
	s, _, found := e.findInLeaf(ref.off, key)
	if found {
		v = e.cdc.slotValue(ref.off, s)
	}
	e.cc.rUnlockLeaf(ref)
	return v, found
}

// Insert adds a key-value pair (Algorithm 2 / 14). Keys are assumed unique,
// as in the paper; inserting an existing key creates a duplicate entry (use
// Upsert for update-or-insert semantics). The fast path locks only the leaf;
// a split performs the persistent work outside any inner-node lock and then
// re-descends pessimistically to update the parents.
func (e *engine[K, V]) Insert(key K, value V) error {
	sp := e.tr.Start(trace.OpInsert)
	_, err := e.putT(key, value, putInsert, sp)
	sp.Finish()
	return err
}

// putMode selects what putT does with the key in its leaf.
type putMode uint8

const (
	putInsert putMode = iota // add the pair without looking for the key (Insert)
	putUpdate                // replace a present key's value, else nothing (Update)
	putUpsert                // update when present, insert when absent (Upsert)
)

// putT is the one body of Insert, Update and Upsert: it takes key's leaf
// exclusively once, decides under that lock whether the key is there, and
// inserts or updates. An update whose value the codec can store with one
// p-atomic word store is done in its slot; any other goes out of place into
// a free slot, and that, like an insert, splits a full leaf first. Deciding
// and writing under one acquisition is what keeps two racing upserts of a
// new key from both inserting it. It reports whether the key was present
// (always false for putInsert, which does not look).
func (e *engine[K, V]) putT(key K, value V, mode putMode, sp *trace.Span) (bool, error) {
	if mode != putUpdate {
		if err := e.cdc.validateKey(key); err != nil {
			return false, err
		}
	}
	fb := false
	defer e.releaseFallback(&fb)
	n, ref := e.acquireLeaf(&key, false, nil, &fb, sp)
	for ref == nil {
		if mode == putUpdate {
			return false, nil
		}
		sp.Enter(trace.PhaseSMO)
		if err := e.firstLeaf(n); err != nil {
			return false, err
		}
		n, ref = e.acquireLeaf(&key, false, nil, &fb, sp)
	}
	var prev int
	var bm uint64
	found := false
	if mode == putInsert {
		bm = e.leafBitmap(ref.off)
	} else {
		prev, bm, found = e.findInLeaf(ref.off, key)
		if (!found && mode == putUpdate) || (found && e.cdc.updateInPlace(ref.off, prev, value)) {
			e.cc.unlockLeaf(ref)
			return found, nil
		}
	}
	target := ref
	var newRef *leafRef
	if bm == e.fullBitmap() {
		// Split: persistent part first (outside any inner lock), then the
		// parent update in a pessimistic SMO descent.
		sp.Enter(trace.PhaseSMO)
		splitKey, nr, err := e.splitLeaf(ref)
		if err != nil {
			e.cc.unlockLeaf(ref)
			return false, err
		}
		newRef = nr
		e.insertSMO(splitKey, ref, newRef)
		if e.cdc.less(splitKey, key) {
			target = newRef
		}
		sp.Enter(trace.PhaseLeaf)
		if found {
			prev, bm, _ = e.findInLeaf(target.off, key)
		} else {
			bm = e.leafBitmap(target.off)
		}
	}
	var err error
	if found {
		slot := bits.TrailingZeros64(^bm)
		_ = e.cdc.writeSlot(target.off, slot, key, value, prev) // a moved key allocates nothing, so nothing can fail
		e.commitSlot(target.off, slot, key, bm&^(1<<prev)|(1<<slot))
		e.cdc.afterUpdate(target.off, prev, key)
	} else {
		err = e.insertIntoLeaf(target, bm, key, value)
	}
	e.cc.unlockLeaf(ref)
	if newRef != nil {
		e.cc.unlockLeaf(newRef)
	}
	if err != nil {
		return false, err
	}
	if !found {
		e.size.Add(1)
	}
	return found, nil
}

// firstLeaf materializes the head leaf of an empty tree under the root lock.
func (e *engine[K, V]) firstLeaf(root *cInner[K]) error {
	e.cc.lockNode(&e.anchor)
	r := e.root.Load()
	e.cc.lockNode(&r.lock)
	if r != root || r.cnt.Load() != 0 {
		e.cc.unlockNodeNoBump(&r.lock)
		e.cc.unlockNodeNoBump(&e.anchor)
		return nil // someone else created it; retry the insert
	}
	e.cc.lockNode(&e.headLock)
	if !e.leafList.first().IsNull() {
		// The delete that emptied the tree has not unlinked its leaf yet.
		e.cc.unlockNodeNoBump(&e.headLock)
		e.cc.unlockNodeNoBump(&r.lock)
		e.cc.unlockNodeNoBump(&e.anchor)
		runtime.Gosched()
		return nil
	}
	var off uint64
	if e.groups.enabled() {
		o, err := e.groups.getLeaf()
		if err != nil {
			e.cc.unlockNodeNoBump(&e.headLock)
			e.cc.unlockNodeNoBump(&r.lock)
			e.cc.unlockNodeNoBump(&e.anchor)
			return err
		}
		e.leafList.setFirst(e.leafList.ptr(o))
		off = o
	} else {
		ptr, err := e.pool.Alloc(e.leafList.head, e.sh.size)
		if err != nil {
			e.cc.unlockNodeNoBump(&e.headLock)
			e.cc.unlockNodeNoBump(&r.lock)
			e.cc.unlockNodeNoBump(&e.anchor)
			return err
		}
		off = ptr.Offset
	}
	e.cc.unlockNodeNoBump(&e.headLock)
	r.leaves[0].Store(&leafRef{off: off})
	r.cnt.Store(1)
	e.cc.unlockNode(&r.lock)
	e.cc.unlockNodeNoBump(&e.anchor)
	return nil
}

// splitLeaf is Algorithm 3 under a split micro-log drawn from the free
// queue, so RecoverSplit can finish or discard the operation from any crash
// point. The new leaf comes from the leaf groups when enabled (§4.3,
// single-threaded only) and is then filled by completeSplit. Otherwise it
// comes straight from the persistent allocator, which fills it with the
// split's image of it, final bitmap included, and persists it once before
// the micro-log publishes it: lines 6-10 of Algorithm 3 cost one write of the
// new leaf, where a zeroed block would be written and flushed twice. The new
// leaf's handle is born write-locked; the caller publishes it to the parents
// and unlocks both halves.
func (e *engine[K, V]) splitLeaf(ref *leafRef) (K, *leafRef, error) {
	var zero, splitKey K
	var newOff uint64
	li := <-e.splitQ
	log := e.m.splitLog(li)
	log.Set(0, e.leafList.ptr(ref.off))
	if e.groups.enabled() {
		off, gerr := e.groups.getLeaf()
		if gerr != nil {
			log.Reset()
			e.splitQ <- li
			return zero, nil, gerr
		}
		log.Set(1, e.leafList.ptr(off))
		newOff = off
		splitKey = e.completeSplit(ref.off, newOff)
	} else {
		img := e.pool.ReadBytes(ref.off, e.sh.size)
		var newBm uint64
		splitKey, newBm = e.findSplitKey(ref.off)
		binary.LittleEndian.PutUint64(img[e.sh.offBitmap:], newBm)
		ptr, aerr := e.pool.AllocInit(log.Off(1), e.sh.size, img)
		if aerr != nil {
			log.Reset()
			e.splitQ <- li
			return zero, nil, aerr
		}
		newOff = ptr.Offset
		e.splitOldHalf(ref.off, newOff, splitKey, newBm)
	}
	log.Reset()
	e.splitQ <- li
	e.Ops.LeafSplits.Add(1)
	newRef := &leafRef{off: newOff}
	e.cc.lockLeaf(newRef)
	return splitKey, newRef, nil
}

// completeSplit performs lines 6-14 of Algorithm 3; recovery re-enters it.
func (e *engine[K, V]) completeSplit(leaf, newLeaf uint64) K {
	// Copy the full leaf content (including the next pointer and the high
	// key: the new leaf becomes the right neighbor and inherits the leaf's
	// upper bound).
	buf := e.pool.ReadBytes(leaf, e.sh.size)
	e.pool.WriteBytes(newLeaf, buf)
	e.pool.Persist(newLeaf, e.sh.size)

	splitKey, newBm := e.findSplitKey(leaf)
	e.persistLeafHeader(newLeaf, newBm)
	e.splitOldHalf(leaf, newLeaf, splitKey, newBm)
	return splitKey
}

// splitOldHalf is lines 11-14 of Algorithm 3, once newLeaf holds the slots
// newBm marks durably: leaf keeps the others, and newLeaf becomes its
// successor above splitKey.
func (e *engine[K, V]) splitOldHalf(leaf, newLeaf uint64, splitKey K, newBm uint64) {
	e.persistLeafHeader(leaf, e.fullBitmap()&^newBm)
	e.cdc.afterSplitBitmaps(leaf, newLeaf)
	e.setNextHigh(leaf, newLeaf, splitKey)
}

// setNextHigh is the split's last step: newLeaf becomes leaf's successor and
// splitKey, the greatest key left in leaf, its high key, in one write of the
// header line they share and one persist — the flush the next pointer alone
// cost. recoverSplit redoes it whole, so a torn line never keeps the new
// next pointer with the old bound.
func (e *engine[K, V]) setNextHigh(leaf, newLeaf uint64, splitKey K) {
	var high [maxHighSize]byte
	e.cdc.putHigh(splitKey, high[:e.sh.highSize])
	e.pool.WritePPtr(leaf+e.sh.offNext, e.leafList.ptr(newLeaf))
	e.pool.WriteBytes(leaf+e.sh.offHigh, high[:e.sh.highSize])
	e.pool.Persist(leaf+e.sh.offNext, e.sh.offHigh+e.sh.highSize-e.sh.offNext)
}

// findSplitKey picks the median key of a full leaf: the returned splitKey is
// the greatest key that stays in the left (original) leaf, and the returned
// bitmap marks the slots that move to the new right leaf. Scratch is
// function-local so concurrent splits do not share state.
func (e *engine[K, V]) findSplitKey(leaf uint64) (K, uint64) {
	m := e.sh.cap
	keys := make([]K, m)
	idxs := make([]int, m)
	for s := 0; s < m; s++ {
		keys[s] = e.cdc.slotKey(leaf, s)
		idxs[s] = s
	}
	sort.Slice(idxs, func(i, j int) bool { return e.cdc.less(keys[idxs[i]], keys[idxs[j]]) })
	keep := (m + 1) / 2
	splitKey := keys[idxs[keep-1]]
	var newBm uint64
	for _, s := range idxs[keep:] {
		newBm |= 1 << s
	}
	return splitKey, newBm
}

// insertSMO inserts (splitKey, newRef) into the leaf parent covering the
// locked leaf oldRef, splitting full nodes preemptively on the way down with
// lock crabbing. Because oldRef stays locked for the whole operation, the
// leaf's key range cannot change and the descent deterministically lands on
// its parent.
func (e *engine[K, V]) insertSMO(splitKey K, oldRef, newRef *leafRef) {
	kp := e.cdc.prefix(splitKey)
	e.cc.lockNode(&e.anchor)
	cur := e.root.Load()
	e.cc.lockNode(&cur.lock)
	if cur.full() {
		up, upP, right := cur.splitNode()
		nr := newCInner[K](e.maxKids(), false)
		nr.kids[0].Store(cur)
		nr.kids[1].Store(right)
		nr.setSep(0, up, upP)
		nr.cnt.Store(2)
		e.root.Store(nr)
		e.cc.unlockNode(&e.anchor)
		if e.cdc.less(*up, splitKey) {
			e.cc.unlockNode(&cur.lock)
			cur = right
			e.cc.lockNode(&cur.lock) // fresh node: no contention
		}
	} else {
		e.cc.unlockNodeNoBump(&e.anchor)
	}
	for !cur.leafParent {
		i := e.locate(cur, splitKey, kp)
		child := cur.kids[i].Load()
		e.cc.lockNode(&child.lock)
		if child.full() {
			up, upP, right := child.splitNode()
			cur.insertAt(i, up, upP, right, nil, e.st)
			if e.cdc.less(*up, splitKey) {
				e.cc.unlockNode(&child.lock)
				child = right
				e.cc.lockNode(&child.lock)
			}
		}
		e.cc.unlockNode(&cur.lock)
		cur = child
	}
	i := e.locate(cur, splitKey, kp)
	if got := cur.leaves[i].Load(); got != oldRef {
		panic("fptree: SMO descent lost the split leaf")
	}
	cur.insertAt(i, &splitKey, kp, nil, newRef, e.st)
	e.cc.unlockNode(&cur.lock)
}

// locate is search for a writer holding n's lock, which never sees a torn
// node. kp is key's prefix.
func (e *engine[K, V]) locate(n *cInner[K], key K, kp uint64) int {
	i, _ := n.search(key, kp, e.sh.exactPfx, e.cdc.less)
	return i
}

// Update replaces the value of a present key and returns false if the key is
// absent. A value that fits one aligned word of its slot — every fixed
// value, and a var value of at most 8 bytes and of the stored value's length
// — is written over the old one with one p-atomic store and one flush: the
// store is the commit, and the fingerprint, the bitmap and the slot stay.
// Any other update is Algorithm 8 / 16: the new pair is written to a free
// slot (splitting a full leaf first) and both the removal of the old slot
// and the insertion of the new one commit with one p-atomic bitmap write.
func (e *engine[K, V]) Update(key K, value V) (bool, error) {
	sp := e.tr.Start(trace.OpUpdate)
	ok, err := e.putT(key, value, putUpdate, sp)
	sp.Finish()
	return ok, err
}

// Upsert inserts the pair, or updates it as Update does when the key exists,
// both decided under one hold of the leaf lock.
func (e *engine[K, V]) Upsert(key K, value V) error {
	sp := e.tr.Start(trace.OpUpsert)
	_, err := e.putT(key, value, putUpsert, sp)
	sp.Finish()
	return err
}

// Delete removes key (Algorithm 5 / 15): the bitmap flip hides the slot,
// then per-slot key storage is released. Removing a leaf's last key unlinks
// and deallocates the leaf under a delete micro-log. The bitmap is flipped
// on the last-key path too: it costs one flush but keeps one code path, and
// recovery prunes empty leaves either way. The single-threaded controller
// always finds the left neighbor; the concurrent one only takes it when it
// is adjacent in the same parent (or the leaf is the list head) — the
// cross-subtree neighbor hunt is not worth its locks, so the empty leaf
// stays linked and recovery reclaims it.
func (e *engine[K, V]) Delete(key K) (bool, error) {
	sp := e.tr.Start(trace.OpDelete)
	ok, err := e.deleteT(key, sp)
	sp.Finish()
	return ok, err
}

func (e *engine[K, V]) deleteT(key K, sp *trace.Span) (bool, error) {
	fb := false
	defer e.releaseFallback(&fb)
	_, ref := e.acquireLeaf(&key, false, nil, &fb, sp)
	if ref == nil {
		return false, nil
	}
	slot, bm, found := e.findInLeaf(ref.off, key)
	if !found {
		e.cc.unlockLeaf(ref)
		return false, nil
	}
	rest := bm &^ (1 << slot)
	e.persistLeafHeader(ref.off, rest)
	e.cdc.releaseSlotKey(ref.off, slot, key)
	if rest == 0 {
		// Last key: try to remove the whole leaf.
		sp.Enter(trace.PhaseSMO)
		if !e.deleteSMO(key, ref) {
			e.cc.unlockLeaf(ref) // leaf stays empty but linked
		}
	} else {
		e.cc.unlockLeaf(ref)
	}
	e.size.Add(-1)
	return true, nil
}

// deleteSMO removes the locked, empty leaf from the tree: pessimistic
// crabbing descent, removal from the leaf parent (pruning emptied ancestors
// and collapsing the root), then the persistent unlink and deallocation
// under a delete micro-log (Algorithm 6). Returns false when the leaf must
// stay (left neighbor unavailable — concurrent controller only).
func (e *engine[K, V]) deleteSMO(key K, ref *leafRef) bool {
	kp := e.cdc.prefix(key)
	e.cc.lockNode(&e.anchor)
	anchorHeld := true
	root := e.root.Load()
	e.cc.lockNode(&root.lock)
	stack := []*cInner[K]{root}
	bail := func() {
		for _, nd := range stack {
			e.cc.unlockNodeNoBump(&nd.lock)
		}
		if anchorHeld {
			e.cc.unlockNodeNoBump(&e.anchor)
		}
	}
	cur := root
	if cur.leafParent || cur.cnt.Load() > 2 {
		e.cc.unlockNodeNoBump(&e.anchor)
		anchorHeld = false
	}
	for !cur.leafParent {
		i := e.locate(cur, key, kp)
		child := cur.kids[i].Load()
		e.cc.lockNode(&child.lock)
		stack = append(stack, child)
		if child.cnt.Load() >= 2 {
			// Safe: removal below cannot empty this child; release ancestors.
			for _, nd := range stack[:len(stack)-1] {
				e.cc.unlockNodeNoBump(&nd.lock)
			}
			if anchorHeld {
				e.cc.unlockNodeNoBump(&e.anchor)
				anchorHeld = false
			}
			stack = stack[len(stack)-1:]
		}
		cur = child
	}
	i := e.locate(cur, key, kp)
	if got := cur.leaves[i].Load(); got != ref {
		panic("fptree: delete SMO descent lost the leaf")
	}
	e.cc.lockNode(&e.headLock)
	isHead := e.leafList.first().Offset == ref.off
	e.cc.unlockNodeNoBump(&e.headLock)
	var prevRef *leafRef
	if !isHead {
		switch {
		case i > 0:
			prevRef = cur.leaves[i-1].Load()
			if !e.cc.tryLockLeaf(prevRef) {
				bail()
				return false
			}
		case e.st:
			// Single-threaded: the left neighbor lives in another subtree,
			// one descent to the leaf's left separator away (free of locks
			// here), so empty leaves never linger.
			var sep separators[K]
			e.descend(&key, false, &sep)
			if sep.lb.ok {
				_, _, prevRef, _ = e.descend(&sep.lb.key, false, nil)
			}
		}
		if prevRef == nil {
			bail() // leftmost in parent and not list head: leave it linked
			return false
		}
	}
	// DRAM removal: prune emptied nodes bottom-up along the locked chain.
	// The lowest node that keeps a child decides who takes the leaf's key
	// range: removeAt drops the separator right of the removed child, which
	// hands the range to the right neighbour, unless the child was the
	// node's last, whose left separator goes and hands it left.
	left := i == int(cur.cnt.Load())-1
	cur.removeAt(i, e.st)
	modified := len(stack) - 1
	for level := len(stack) - 1; level > 0 && stack[level].cnt.Load() == 0; level-- {
		parent := stack[level-1]
		j := e.locate(parent, key, kp)
		left = j == int(parent.cnt.Load())-1
		parent.removeAt(j, e.st)
		modified = level - 1
	}
	// Root collapse: keep the height minimal.
	rootSwapped := false
	if anchorHeld {
		r := stack[0]
		for !r.leafParent && r.cnt.Load() == 1 {
			r = r.kids[0].Load()
			e.root.Store(r)
			rootSwapped = true
		}
	}
	for i, nd := range stack {
		if i >= modified {
			e.cc.unlockNode(&nd.lock)
		} else {
			e.cc.unlockNodeNoBump(&nd.lock)
		}
	}
	if anchorHeld {
		if rootSwapped {
			e.cc.unlockNode(&e.anchor)
		} else {
			e.cc.unlockNodeNoBump(&e.anchor)
		}
	}

	// Persistent unlink + deallocation (Algorithm 6). A range handed left
	// takes the leaf's high key to prev in the same line write.
	var prevOff uint64
	if prevRef != nil {
		prevOff = prevRef.off
	}
	e.unlinkLeaf(ref.off, prevOff, left, ref)
	if prevRef != nil {
		e.cc.unlockLeaf(prevRef)
	}
	return true
}

// unlinkLeaf removes leaf from the persistent list under a delete micro-log
// drawn from the free queue and releases its storage (Algorithm 6). prev is
// ignored when leaf is the list head; left makes leaf's high key prev's, for
// a removal that handed leaf's key range to prev. ref may be nil during
// recovery (no live handle exists yet).
func (e *engine[K, V]) unlinkLeaf(leaf, prev uint64, left bool, ref *leafRef) {
	li := <-e.deleteQ
	e.leafList.unlink(e.m.deleteLog(li), leaf, prev, left, func(log scm.MicroLog) {
		if ref != nil {
			ref.dead.Store(true) // handle stays locked forever; stale readers bounce
		}
		e.releaseLeaf(log)
	})
	e.deleteQ <- li
}

// releaseLeaf hands the unlinked leaf in log's cell 0 back to its owner: the leaf
// groups, or the persistent allocator via the micro-log cell (which nulls
// it). During micro-log replay the group bookkeeping is still volatile-empty,
// so a grouped leaf is simply left for rebuildFreeVector to reclassify as
// free (it is no longer reachable from the leaf list).
func (e *engine[K, V]) releaseLeaf(log scm.MicroLog) {
	if e.groups.enabled() {
		if !e.recovering {
			e.groups.freeLeaf(log.P(0).Offset)
		}
		return
	}
	e.pool.Free(log.Off(0), e.sh.size)
}

// --- recovery -----------------------------------------------------------------

// recoverSplit is Algorithm 4.
func (e *engine[K, V]) recoverSplit(log scm.MicroLog) {
	a, b := log.P(0), log.P(1)
	if a.IsNull() || b.IsNull() {
		// Crashed before the new leaf was durably obtained: the allocator
		// intent has already been rolled back (or the group leaf stays in the
		// free vector); discard.
		if !a.IsNull() || !b.IsNull() {
			log.Reset()
		}
		return
	}
	if e.leafBitmap(a.Offset) == e.fullBitmap() {
		// Crashed before line 11 (the split leaf's bitmap update): redo the
		// whole copy phase.
		e.completeSplit(a.Offset, b.Offset)
	} else {
		// Crashed at or after line 11: recompute the idempotent tail. The
		// split key is the greatest key the split left in the leaf.
		e.persistLeafHeader(a.Offset, e.fullBitmap()&^e.leafBitmap(b.Offset))
		e.cdc.afterSplitBitmaps(a.Offset, b.Offset)
		splitKey, _, _ := e.cdc.scanLeaf(a.Offset, &scanBuf{leaf: make([]byte, e.sh.size)})
		e.setNextHigh(a.Offset, b.Offset, splitKey)
	}
	log.Reset()
}

// rebuild reconstructs the DRAM inner nodes from the persistent leaf list
// (Algorithm 9, RebuildInnerNodes), scanning the leaves on workers
// goroutines (recovery.go). Leaves emptied by an interrupted delete are
// unlinked on the way — a crash can leave an empty leaf in the list, and
// separators for empty leaves would be meaningless.
func (e *engine[K, V]) rebuild(workers int) {
	start := time.Now()
	leaves, bounds, size := e.collectLeaves(workers)
	e.size.Store(int64(size))
	e.root.Store(buildInnerW(leaves, bounds, e.maxKids(), workers, e.cdc.prefix))
	e.groups.rebuildFreeVector(leaves)
	e.sanitizeFreeLeaves()
	if e.groups.enabled() {
		for p := e.groups.list.first(); !p.IsNull(); p = e.groups.list.after(p.Offset) {
			e.Ops.RecoveryGroups.Add(1)
		}
	}
	e.Ops.InnerRebuilds.Add(1)
	e.Ops.RecoveryNanos.Store(uint64(time.Since(start).Nanoseconds()))
}

// sanitizeFreeLeaves restores, at the end of recovery, the invariant that a
// group leaf not reachable from the leaf list has a zero durable bitmap and
// owns no key blocks. A crash can break it in exactly one spot: bulk load
// fills a carved leaf (var keys: durably publishing key-block pointers into
// its slots) before linking it. Without the sweep, the free vector would
// hand that leaf back to firstLeaf, whose stale nonzero bitmap would
// resurrect the dead keys. The free vector is rebuilt in deterministic
// group-walk order, so the sweep issues the same durable writes regardless
// of the recovery worker count.
func (e *engine[K, V]) sanitizeFreeLeaves() {
	if !e.groups.enabled() {
		return
	}
	sb := &scanBuf{leaf: make([]byte, e.sh.size)}
	for _, leaf := range e.groups.free {
		if e.leafBitmap(leaf) != 0 {
			e.persistLeafHeader(leaf, 0)
		}
		_, _, leaks := e.cdc.scanLeaf(leaf, sb)
		e.cdc.applyLeaks(leaf, leaks)
	}
}

// --- introspection ------------------------------------------------------------

// CheckInvariants validates the structural invariants the design relies on;
// tests call it after crash-recovery cycles (and, for the concurrent
// variants, only while no operations are in flight). It returns the first
// violation found.
func (e *engine[K, V]) CheckInvariants() error {
	var prevMax K
	havePrev := false
	n := 0
	owners := map[scm.PPtr]int{}
	var hdr [MaxLeafCap + 16]byte
	for p := e.leafList.first(); !p.IsNull(); p = e.leafList.after(p.Offset) {
		leaf := p.Offset
		bm := e.leafBitmap(leaf)
		if e.sh.hasFP {
			e.pool.ReadInto(leaf, hdr[:e.sh.cap])
		}
		var lo, hi K
		cnt := 0
		for s := 0; s < e.sh.cap; s++ {
			if bm&(1<<s) == 0 {
				if err := e.cdc.checkInvalidSlot(leaf, s); err != nil {
					return err
				}
				continue
			}
			k := e.cdc.slotKey(leaf, s)
			if tok, okTok := e.cdc.ownerToken(leaf, s); okTok {
				owners[tok]++
			}
			if e.sh.hasFP && hdr[s] != e.cdc.fingerprint(k) {
				return fmt.Errorf("leaf %#x slot %d: fingerprint mismatch for key %v", leaf, s, k)
			}
			if cnt == 0 || e.cdc.less(k, lo) {
				lo = k
			}
			if cnt == 0 || e.cdc.less(hi, k) {
				hi = k
			}
			cnt++
			n++
		}
		// Empty leaves only ever linger in the concurrent trees (deferred
		// deletions); the single-threaded delete always unlinks eagerly.
		if cnt == 0 && e.st && e.Len() > 0 {
			return fmt.Errorf("leaf %#x: empty leaf in non-empty tree", leaf)
		}
		if cnt > 0 {
			if havePrev && !e.cdc.less(prevMax, lo) {
				return fmt.Errorf("leaf %#x: min key %v <= previous leaf max %v", leaf, lo, prevMax)
			}
			prevMax, havePrev = hi, true
		}
	}
	for pk, c := range owners {
		if c != 1 {
			return fmt.Errorf("key block %v has %d owners", pk, c)
		}
	}
	kb := e.m.keyBlocks()
	if len(owners) > 0 && !kb {
		return fmt.Errorf("%d key blocks owned, key-blocks word unset", len(owners))
	}
	if n != e.Len() {
		return fmt.Errorf("size mismatch: list has %d keys, tree reports %d", n, e.Len())
	}
	// Every key reachable through the inner nodes.
	for p := e.leafList.first(); !p.IsNull(); p = e.leafList.after(p.Offset) {
		leaf := p.Offset
		bm := e.leafBitmap(leaf)
		for s := 0; s < e.sh.cap; s++ {
			if bm&(1<<s) == 0 {
				continue
			}
			k := e.cdc.slotKey(leaf, s)
			if ref := e.findLeafRef(k); ref == nil || ref.off != leaf {
				return fmt.Errorf("key %v lives in leaf %#x but descent misses it", k, leaf)
			}
		}
	}
	if err := e.checkSepPrefixes(e.root.Load()); err != nil {
		return err
	}
	if err := e.checkHighKeys(kb); err != nil {
		return err
	}
	// A group leaf not linked in the leaf list must look freshly recycled:
	// zero durable bitmap (otherwise a reuse through firstLeaf would
	// resurrect its stale slots) and, for the var codec, no owned key blocks.
	// Both codecs share the check; recovery's free-leaf sweep enforces it.
	if e.groups.enabled() {
		linked := make(map[uint64]bool)
		for p := e.leafList.first(); !p.IsNull(); p = e.leafList.after(p.Offset) {
			linked[p.Offset] = true
		}
		for p := e.groups.list.first(); !p.IsNull(); p = e.groups.list.after(p.Offset) {
			for _, leaf := range e.groups.leafOffsets(p.Offset) {
				if linked[leaf] {
					continue
				}
				if bm := e.leafBitmap(leaf); bm != 0 {
					return fmt.Errorf("leaf %#x: unreachable group leaf has nonzero bitmap %#x", leaf, bm)
				}
				for s := 0; s < e.sh.cap; s++ {
					if err := e.cdc.checkInvalidSlot(leaf, s); err != nil {
						return err
					}
				}
			}
		}
	}
	return e.groups.checkInvariants()
}

// leafHigh reads leaf's high key; ok is false when the leaf stores none.
func (e *engine[K, V]) leafHigh(leaf uint64) (K, bool) {
	var b [maxHighSize]byte
	h := b[:e.sh.highSize]
	e.pool.ReadInto(leaf+e.sh.offHigh, h)
	return e.cdc.high(h)
}

// leafSep is a leaf as the inner nodes see it: its offset and the separator
// right of it (nil for the last leaf).
type leafSep[K any] struct {
	off uint64
	sep *K
}

// leafSeps appends the leaves under n in key order, each with the separator
// right of it; right is the separator right of n.
func (e *engine[K, V]) leafSeps(n *cInner[K], right *K, out []leafSep[K]) []leafSep[K] {
	c := int(n.cnt.Load())
	for j := 0; j < c; j++ {
		sep := right
		if j < c-1 {
			sep = n.keys[j].Load()
		}
		if n.leafParent {
			out = append(out, leafSep[K]{n.leaves[j].Load().off, sep})
		} else {
			out = e.leafSeps(n.kids[j].Load(), sep, out)
		}
	}
	return out
}

// checkHighKeys checks what recovery's separators rest on: the inner nodes
// hold the list's leaves in list order, and every linked leaf but the last
// that stores a high key holds only keys in (the previous leaf's high key,
// its own], and has that high key as the separator right of it. Without the
// key-blocks word (kb) every leaf but the last stores one.
func (e *engine[K, V]) checkHighKeys(kb bool) error {
	dram := e.leafSeps(e.root.Load(), nil, nil)
	eq := func(a, b K) bool { return !e.cdc.less(a, b) && !e.cdc.less(b, a) }
	var lower bound[K]
	i := 0
	for p := e.leafList.first(); !p.IsNull(); p, i = e.leafList.after(p.Offset), i+1 {
		leaf := p.Offset
		if i >= len(dram) || dram[i].off != leaf {
			return fmt.Errorf("leaf %#x: list position %d, where the inner nodes hold %d leaves", leaf, i, len(dram))
		}
		high, ok := e.leafHigh(leaf)
		last := e.leafList.after(leaf).IsNull()
		if !ok && !last && !kb {
			return fmt.Errorf("leaf %#x stores no high key, key-blocks word unset", leaf)
		}
		if !ok || last {
			lower = bound[K]{}
			continue
		}
		if sep := dram[i].sep; sep == nil {
			return fmt.Errorf("leaf %#x: high key %v, no separator right of it", leaf, high)
		} else if !eq(*sep, high) {
			return fmt.Errorf("leaf %#x: high key %v, separator right of it %v", leaf, high, *sep)
		}
		bm := e.leafBitmap(leaf)
		for s := 0; s < e.sh.cap; s++ {
			if bm&(1<<s) == 0 {
				continue
			}
			if k := e.cdc.slotKey(leaf, s); e.cdc.less(high, k) || (lower.ok && !e.cdc.less(lower.key, k)) {
				return fmt.Errorf("leaf %#x: key %v outside (%v, %v]", leaf, k, lower, high)
			}
		}
		lower = bound[K]{high, true}
	}
	if i != len(dram) {
		return fmt.Errorf("the leaf list holds %d leaves, the inner nodes %d", i, len(dram))
	}
	return nil
}

// checkSepPrefixes walks the DRAM nodes under n and checks that every live
// separator is set and its prefix word is the codec's prefix of its key.
func (e *engine[K, V]) checkSepPrefixes(n *cInner[K]) error {
	c := int(n.cnt.Load())
	for i := 0; i < c-1; i++ {
		kp := n.keys[i].Load()
		if kp == nil {
			return fmt.Errorf("inner node %p: separator %d of %d is nil", n, i, c-1)
		}
		if got, want := n.pfx[i].Load(), e.cdc.prefix(*kp); got != want {
			return fmt.Errorf("inner node %p: separator %d (%v) has prefix %#x, want %#x", n, i, *kp, got, want)
		}
	}
	if !n.leafParent {
		for i := 0; i < c; i++ {
			if err := e.checkSepPrefixes(n.kids[i].Load()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Memory walks the DRAM part and combines it with the pool's SCM accounting
// (the Figure 8 experiment). DRAM cost counts live content per node — the
// fixed-capacity arrays overallocate, but the estimate tracks what a
// dynamically sized node would hold, matching the paper's model.
func (e *engine[K, V]) Memory() MemoryStats {
	var st MemoryStats
	st.SCMBytes = e.pool.AllocatedBytes()
	var walk func(n *cInner[K])
	walk = func(n *cInner[K]) {
		st.Inners++
		c := int(n.cnt.Load())
		st.DRAMBytes += 48 + uint64(c)*8
		for i := 0; i < c-1; i++ {
			if kp := n.keys[i].Load(); kp != nil {
				st.DRAMBytes += 8 + e.cdc.keyDRAMBytes(*kp) // prefix word + key
			}
		}
		if n.leafParent {
			st.Leaves += c
			return
		}
		for i := 0; i < c; i++ {
			walk(n.kids[i].Load())
		}
	}
	if r := e.root.Load(); r.cnt.Load() > 0 {
		walk(r)
	}
	return st
}
