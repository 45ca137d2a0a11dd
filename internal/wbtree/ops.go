package wbtree

import (
	"math/bits"

	"fptree/internal/scm"
)

// The wBTree's consistency protocol in this implementation:
//
//   - The bitmap word is the single p-atomic commit point for entry validity,
//     exactly as in the original design.
//   - The slot array is maintained as a sorted SUPERSET of the valid entries:
//     inserts rewrite it (including the new entry) BEFORE the bitmap commit,
//     deletes rewrite it AFTER the bitmap commit. Readers filter slot entries
//     through the bitmap, so a crash between the two writes is harmless and
//     needs no recovery action.
//   - Structure modifications (node splits, node removals, root changes) are
//     protected by FPTree-style micro-logs, as in the paper's evaluation
//     setup. A split copies the LOWER half into a fresh node and commits by
//     inserting the (sepKey -> newNode) entry into the parent, so exactly one
//     p-atomic parent commit publishes the split.

func (t *Index[K]) count(n uint64) int {
	return bits.OnesCount64(t.nBitmap(n) &^ slotValidBit)
}

// full reports whether the node must be split before an insertion may touch
// it. Inner nodes split one entry early so a split's combined
// insert-plus-re-key commit always finds two free slots.
func (t *Index[K]) full(n uint64, leaf bool) bool {
	if leaf {
		return t.count(n) == t.leafCap
	}
	return t.count(n) >= t.innerCap-1
}

func (t *Index[K]) firstFree(n uint64) int {
	bm := t.nBitmap(n) &^ slotValidBit
	return bits.TrailingZeros64(^bm)
}

// insertEntry adds (key, val) to a non-full node with the superset-slot
// protocol. It returns the entry index used.
func (t *Index[K]) insertEntry(n uint64, k K, val uint64) (int, error) {
	order, rank, _ := t.search(n, k)
	if len(order) >= t.capOf(t.nIsLeaf(n)) {
		panic("wbtree: insertEntry on full node")
	}
	e := t.firstFree(n)
	if err := t.kc.Write(t.pool, t.entryOff(n, e), k); err != nil {
		return 0, err
	}
	t.setEntryVal(n, e, val)
	newOrder := make([]int, 0, len(order)+1)
	newOrder = append(newOrder, order[:rank]...)
	newOrder = append(newOrder, e)
	newOrder = append(newOrder, order[rank:]...)
	t.writeSlots(n, newOrder)
	t.setBitmap(n, t.nBitmap(n)|1<<e)
	return e, nil
}

// removeEntry hides entry e p-atomically, then refreshes the slot array and
// deallocates a variable-size key's block through the entry's cell.
func (t *Index[K]) removeEntry(n uint64, e int) {
	t.setBitmap(n, t.nBitmap(n)&^(1<<e))
	t.writeSlots(n, t.sortedEntries(n))
	t.kc.Free(t.pool, t.entryOff(n, e))
}

// entryWithVal locates the valid entry whose value equals val, or -1.
func (t *Index[K]) entryWithVal(n uint64, val uint64) int {
	bm := t.nBitmap(n) &^ slotValidBit
	for e := 0; e < 63; e++ {
		if bm&(1<<e) != 0 && t.entryVal(n, e) == val {
			return e
		}
	}
	return -1
}

// ensureRoot lazily materializes the root leaf (rootLog protocol).
func (t *Index[K]) ensureRoot() error {
	if t.rootOff() != 0 {
		return nil
	}
	log := t.rootLog()
	off, err := t.newNode(log.Off(0), true)
	if err != nil {
		return err
	}
	t.setRootOff(off)
	log.Reset()
	return nil
}

// growRoot puts a fresh inner node above a full root (rootLog protocol).
// insertInfEntry appends the +infinity separator entry for child.
func (t *Index[K]) insertInfEntry(n uint64, child uint64) {
	e := t.firstFree(n)
	t.kc.WriteInf(t.pool, t.entryOff(n, e))
	t.setEntryVal(n, e, child)
	t.writeSlots(n, append(t.sortedEntries(n), e))
	t.setBitmap(n, t.nBitmap(n)|1<<e)
}

func (t *Index[K]) growRoot() error {
	log := t.rootLog()
	old := t.rootOff()
	off, err := t.newNode(log.Off(0), false)
	if err != nil {
		return err
	}
	// The old root becomes the single child behind a "+infinity" separator,
	// keeping the invariant that a node's greatest entry bounds its whole
	// key range from above.
	t.insertInfEntry(off, old)
	t.setRootOff(off)
	log.Reset()
	return nil
}

// splitNode copies the lower half of the full node into a fresh node and
// publishes it with one p-atomic insert into the (non-full) parent. Returns
// the separator and the new node (which covers keys <= separator). An arena
// that runs out before the parent commit (the separator's key block) frees
// the new node and resets the log, as recovery would, leaving n whole.
func (t *Index[K]) splitNode(n, parent uint64, leaf bool) (sep K, newOff uint64, err error) {
	log := t.splitLog()
	log.Set(0, scm.PPtr{ArenaID: t.pool.ID(), Offset: n})
	log.Set(2, scm.PPtr{ArenaID: t.pool.ID(), Offset: parent})
	capN := t.capOf(leaf)
	if _, err = t.pool.Alloc(log.Off(1), t.nodeSize(capN)); err != nil {
		log.Reset()
		return sep, 0, err
	}
	newOff = t.pool.ReadPPtr(log.Off(1)).Offset
	// Copy flags + entries wholesale (same entry indexes in both nodes).
	t.pool.WriteU64(newOff+nOffFlags, t.pool.ReadU64(n+nOffFlags))
	t.pool.Persist(newOff+nOffFlags, 8)
	ents := t.pool.ReadBytes(n+nOffEntries, uint64(capN)*t.entrySize())
	t.pool.WriteBytes(newOff+nOffEntries, ents)
	t.pool.Persist(newOff+nOffEntries, uint64(len(ents)))

	order := t.sortedEntries(n)
	keep := (len(order) + 1) / 2 // lower half moves to the new node
	lower := order[:keep]
	sep = t.entryKey(n, order[keep-1])
	var lowBm uint64
	for _, e := range lower {
		lowBm |= 1 << e
	}
	t.writeSlots(newOff, lower)
	t.setBitmap(newOff, lowBm|slotValidBit)

	// Commit point: the parent entry (sep -> new node). If n was receiving
	// clamped overflow traffic (its parent-entry key is below sep), the same
	// p-atomic bitmap commit also re-keys n's entry to the infinity
	// separator, so the greatest parent entry keeps covering n's range.
	pe := t.entryWithVal(parent, n)
	if pe >= 0 && t.cmpKey(parent, pe, sep) <= 0 {
		// pe.key <= sep implies n held keys beyond its separator, i.e. n was
		// the node's clamp target — so the infinity re-key is exact.
		err = t.insertSplitRekey(parent, sep, newOff, pe, n)
	} else {
		_, err = t.insertEntry(parent, sep, newOff)
	}
	if err != nil {
		t.pool.Free(log.Off(1), t.nodeSize(capN))
		log.Reset()
		return sep, 0, err
	}
	t.finishSplit(n, newOff)
	log.Reset()
	return sep, newOff, nil
}

// insertSplitRekey atomically adds the (sep -> new) entry, replaces the
// split node's stale parent entry pe with an infinity entry, all with one
// bitmap store. Needs two free slots, which the insert path's early inner
// split threshold guarantees.
func (t *Index[K]) insertSplitRekey(parent uint64, sep K, newOff uint64, pe int, n uint64) error {
	bm := t.nBitmap(parent)
	e1 := bits.TrailingZeros64(^(bm &^ slotValidBit))
	if err := t.kc.Write(t.pool, t.entryOff(parent, e1), sep); err != nil {
		return err
	}
	t.setEntryVal(parent, e1, newOff)
	e2 := bits.TrailingZeros64(^(bm&^slotValidBit | 1<<e1))
	t.kc.WriteInf(t.pool, t.entryOff(parent, e2))
	t.setEntryVal(parent, e2, n)
	// Slot order: old entries minus pe, with e1 (sep) in rank order and e2
	// (infinity) last.
	var order []int
	for _, e := range t.sortedEntries(parent) {
		if e == pe {
			continue
		}
		order = append(order, e)
	}
	rank := 0
	for rank < len(order) && t.cmpKey(parent, order[rank], sep) < 0 {
		rank = rank + 1
	}
	order = append(order, 0)
	copy(order[rank+1:], order[rank:])
	order[rank] = e1
	order = append(order, e2)
	t.writeSlots(parent, order)
	t.setBitmap(parent, (bm|1<<e1|1<<e2|slotValidBit)&^(1<<pe))
	// The replaced entry's separator key block is no longer referenced.
	t.kc.Free(t.pool, t.entryOff(parent, pe))
	return nil
}

// finishSplit shrinks the split node to its upper half; recovery re-enters
// it, so every step is idempotent.
func (t *Index[K]) finishSplit(n, newOff uint64) {
	moved := t.nBitmap(newOff) &^ slotValidBit
	t.setBitmap(n, t.nBitmap(n)&^moved)
	t.writeSlots(n, t.sortedEntries(n))
}

// descendPath records the nodes visited from root to leaf.
type pathEnt struct {
	node uint64
}

// leafOf returns the leaf covering k, or 0 in an empty tree.
func (t *Index[K]) leafOf(k K) uint64 {
	n := t.rootOff()
	for n != 0 && !t.nIsLeaf(n) {
		n, _, _ = t.childOf(n, k)
	}
	return n
}

// doInsert inserts with top-down preemptive splits.
func (t *Index[K]) doInsert(k K, val uint64) error {
	if err := t.ensureRoot(); err != nil {
		return err
	}
	if t.full(t.rootOff(), t.nIsLeaf(t.rootOff())) {
		if err := t.growRoot(); err != nil {
			return err
		}
	}
	parent := uint64(0)
	n := t.rootOff()
	for {
		leaf := t.nIsLeaf(n)
		if parent != 0 && t.full(n, leaf) {
			sep, newOff, err := t.splitNode(n, parent, leaf)
			if err != nil {
				return err
			}
			if t.kc.Compare(k, sep) <= 0 {
				n = newOff
			}
		}
		if leaf {
			if _, err := t.insertEntry(n, k, val); err != nil {
				return err
			}
			t.size++
			return nil
		}
		parent = n
		n, _, _ = t.childOf(n, k)
	}
}

// doDelete removes the key, pruning emptied nodes up the recorded path with
// one micro-logged removal per level.
func (t *Index[K]) doDelete(k K) bool {
	n := t.rootOff()
	if n == 0 {
		return false
	}
	var path []pathEnt
	for !t.nIsLeaf(n) {
		path = append(path, pathEnt{n})
		n, _, _ = t.childOf(n, k)
	}
	order, rank, exact := t.search(n, k)
	if !exact {
		return false
	}
	t.removeEntry(n, order[rank])
	t.size--
	// Prune an emptied subtree: find the highest ancestor that would become
	// empty, detach the whole chain with ONE p-atomic commit in its survivor
	// parent, then free the now-unreachable chain nodes. Detaching top-first
	// means no empty inner node is ever reachable, from any crash point.
	if t.count(n) == 0 && len(path) > 0 {
		i := len(path) - 1
		chainTop := n
		chain := []uint64{n}
		for i >= 0 && t.count(path[i].node) == 1 {
			chainTop = path[i].node
			chain = append(chain, chainTop)
			i--
		}
		if i >= 0 {
			surv := path[i].node
			if e := t.entryWithVal(surv, chainTop); e >= 0 {
				t.removeEntry(surv, e)
			}
		} else {
			// The whole tree emptied; chain includes the root.
			t.setRootOff(0)
		}
		// A crash here leaks any chain nodes not yet logged below — a
		// bounded, crash-only leak (the chain is unreachable either way).
		for _, nd := range chain {
			t.freeDetached(nd)
		}
	}
	// Collapse a root chain of single-child inner nodes; an inner root whose
	// last child was pruned leaves an empty tree.
	for {
		r := t.rootOff()
		if r == 0 || t.nIsLeaf(r) {
			break
		}
		switch t.count(r) {
		case 0:
			t.shrinkRoot(r, 0)
		case 1:
			only := t.sortedEntries(r)[0]
			t.shrinkRoot(r, t.entryVal(r, only))
		default:
			return true
		}
	}
	return true
}

// freeDetached deallocates a node that is no longer reachable from the root
// (delete micro-log: marker in p2, node in p0 — recovery frees it unless it
// is the current root).
func (t *Index[K]) freeDetached(n uint64) {
	log := t.delLog()
	log.Set(2, scm.PPtr{ArenaID: t.pool.ID(), Offset: t.meta})
	log.Set(0, scm.PPtr{ArenaID: t.pool.ID(), Offset: n})
	t.pool.Free(log.Off(0), t.nodeSizeOf(n))
	log.Reset()
}

// shrinkRoot replaces a single-child inner root by its child. The delete
// micro-log's third cell is set to the metadata block first, marking the
// root case unambiguously: a crash between the log writes must never be
// mistaken for a node removal (whose roll-forward test differs).
func (t *Index[K]) shrinkRoot(root, child uint64) {
	log := t.delLog()
	log.Set(2, scm.PPtr{ArenaID: t.pool.ID(), Offset: t.meta})
	log.Set(0, scm.PPtr{ArenaID: t.pool.ID(), Offset: root})
	t.setRootOff(child)
	t.pool.Free(log.Off(0), t.nodeSizeOf(root))
	log.Reset()
}

// nodeSizeOf computes the allocation size of an existing node from its kind.
func (t *Index[K]) nodeSizeOf(n uint64) uint64 {
	return t.nodeSize(t.capOf(t.nIsLeaf(n)))
}

// recover replays the three micro-logs. The whole tree is in SCM, so this is
// all recovery does — the near-instant restart of Figure 12b.
//
// Each log is sanitized whenever ANY of its slots is non-null, not only when
// its leading slot is: a log line resets as a word-prefix commit, so a torn
// crash during reset() can null slot 0 while slots 1 and 2 keep their stale
// pointers. The replay logic itself stays keyed on slot 0 — it is written
// first in every protocol, so with slot 0 null the remaining slots are
// leftovers that recorded no durable mutation and must only be wiped (never
// freed — the blocks they name are owned by the live tree).
func (t *Index[K]) recover() {
	// Root log: a staged root (first leaf or grown root) either became the
	// root or is discarded.
	if rl := t.rootLog(); !rl.P(0).IsNull() || !rl.P(1).IsNull() || !rl.P(2).IsNull() {
		if !rl.P(0).IsNull() && t.rootOff() != rl.P(0).Offset {
			t.pool.Free(rl.Off(0), t.nodeSizeOf(rl.P(0).Offset))
		}
		rl.Reset()
	}
	// Split log: roll forward when the parent references the new node.
	if sl := t.splitLog(); !sl.P(0).IsNull() || !sl.P(1).IsNull() || !sl.P(2).IsNull() {
		if !sl.P(0).IsNull() {
			cur, parent := sl.P(0).Offset, sl.P(2).Offset
			if nw := sl.P(1); !nw.IsNull() {
				if parent != 0 && t.entryWithVal(parent, nw.Offset) >= 0 {
					t.finishSplit(cur, nw.Offset)
				} else {
					t.pool.Free(sl.Off(1), t.nodeSizeOf(nw.Offset))
				}
			}
		}
		sl.Reset()
	}
	// Delete log: the marker in p2 plus the node in p0 means "free this
	// node unless it is the current root" — covering both root shrinks and
	// detached-subtree frees. A log with only one cell set recorded no
	// durable mutation.
	if dl := t.delLog(); !dl.P(0).IsNull() || !dl.P(1).IsNull() || !dl.P(2).IsNull() {
		p0, p2 := dl.P(0), dl.P(2)
		if !p0.IsNull() && !p2.IsNull() && t.rootOff() != p0.Offset {
			t.pool.Free(dl.Off(0), t.nodeSizeOf(p0.Offset))
		}
		dl.Reset()
	}
}

// --- public API -------------------------------------------------------------------

// Find returns the value stored under key.
func (t *Index[K]) Find(key K) (uint64, bool) {
	n := t.leafOf(key)
	if n == 0 {
		return 0, false
	}
	order, rank, exact := t.search(n, key)
	if !exact {
		return 0, false
	}
	return t.entryVal(n, order[rank]), true
}

// Insert adds a key-value pair (keys are assumed unique).
func (t *Index[K]) Insert(key K, value uint64) error { return t.doInsert(key, value) }

// Update replaces the value under key with one p-atomic store.
func (t *Index[K]) Update(key K, value uint64) (bool, error) {
	n := t.leafOf(key)
	if n == 0 {
		return false, nil
	}
	order, rank, exact := t.search(n, key)
	if !exact {
		return false, nil
	}
	t.setEntryVal(n, order[rank], value)
	return true, nil
}

// Upsert inserts or updates.
func (t *Index[K]) Upsert(key K, value uint64) error {
	if ok, _ := t.Update(key, value); ok {
		return nil
	}
	return t.Insert(key, value)
}

// Delete removes key.
func (t *Index[K]) Delete(key K) (bool, error) { return t.doDelete(key), nil }

// Scan visits pairs with key >= from in ascending order until fn returns
// false. It seeks leaf by leaf through the tree, using the separators as
// upper bounds, and emits valid entries in slot (key) order.
func (t *Index[K]) Scan(from K, fn func(k K, v uint64) bool) {
	cur := from
	for {
		n := t.rootOff()
		if n == 0 {
			return
		}
		var ub K
		haveUB := false
		for !t.nIsLeaf(n) {
			order, rank, _ := t.search(n, cur)
			idx := rank
			if idx >= len(order) {
				idx = len(order) - 1
			} else if !t.entryIsInf(n, order[idx]) {
				// The chosen separator bounds the subtree from above.
				ub, haveUB = t.entryKey(n, order[idx]), true
			}
			n = t.entryVal(n, order[idx])
		}
		for _, e := range t.sortedEntries(n) {
			if t.kc.Compare(t.entryKey(n, e), cur) < 0 {
				continue
			}
			// A clamp-target leaf can hold keys above the separator that led
			// here. Those belong to a later round — the next descent clamps
			// back into this leaf — so emitting them now would duplicate them.
			if haveUB && t.kc.Compare(t.entryKey(n, e), ub) > 0 {
				break
			}
			if !fn(t.entryKey(n, e), t.entryVal(n, e)) {
				return
			}
		}
		if !haveUB {
			return
		}
		cur = t.kc.Succ(ub)
	}
}
