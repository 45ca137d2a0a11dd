package nvtree

import (
	"sort"

	"fptree/internal/scm"
)

// --- DRAM inner structure -------------------------------------------------------

// plnIdx locates the leaf parent covering the key via binary search over the
// directory of PLN max keys (keys greater than every max key go to the last
// PLN).
func (t *Index[K, V]) plnIdx(k K) int {
	n := len(t.plns)
	i := sort.Search(n, func(i int) bool { return t.kc.Covers(t.plns[i].maxKey, k) })
	if i == n {
		i = n - 1
	}
	return i
}

// leafIdx locates the leaf within the PLN covering the key.
func (t *Index[K, V]) leafIdx(p *pln[K], k K) int {
	return sort.Search(len(p.leaves)-1, func(i int) bool { return t.kc.Covers(p.seps[i], k) })
}

// findLeaf returns (plnIndex, leafIndex, leafOffset).
func (t *Index[K, V]) findLeaf(k K) (int, int, uint64) {
	pi := t.plnIdx(k)
	p := &t.plns[pi]
	li := t.leafIdx(p, k)
	return pi, li, p.leaves[li]
}

// prevLeafOf returns the left list neighbor of the leaf at (pi, li), or 0.
func (t *Index[K, V]) prevLeafOf(pi, li int) uint64 {
	if li > 0 {
		return t.plns[pi].leaves[li-1]
	}
	if pi > 0 {
		prev := t.plns[pi-1].leaves
		return prev[len(prev)-1]
	}
	return 0
}

// rebuildInner reconstructs all leaf parents from the persistent leaf list —
// the NV-Tree's expensive global rebuild. Parents are left half-full and
// capacity-padded, reproducing both the rebuild cost and the DRAM footprint.
func (t *Index[K, V]) rebuildInner() {
	t.rebuilds++
	type leafInfo struct {
		off   uint64
		bound K
	}
	var leaves []leafInfo
	size := 0
	for p := t.head(); !p.IsNull(); {
		l := p.Offset
		next := t.leafNext(l)
		size += len(t.liveEntries(l))
		leaves = append(leaves, leafInfo{l, t.leafBound(l)})
		p = next
	}
	t.size = size
	t.plns = t.plns[:0]
	fill := t.plnCap / 2
	if fill < 2 {
		fill = 2
	}
	for at := 0; at < len(leaves); at += fill {
		end := at + fill
		if end > len(leaves) {
			end = len(leaves)
		}
		p := pln[K]{leaves: make([]uint64, 0, t.plnCap), seps: make([]K, 0, t.plnCap)}
		for i := at; i < end; i++ {
			p.leaves = append(p.leaves, leaves[i].off)
			if i < end-1 {
				p.seps = append(p.seps, leaves[i].bound)
			}
		}
		p.maxKey = leaves[end-1].bound
		t.plns = append(t.plns, p)
	}
}

// replaceLeafInPLN swaps the split leaf for its two replacements, or
// triggers the global rebuild when the parent is full.
func (t *Index[K, V]) replaceLeafInPLN(pi, li int, sep K, l1, l2 uint64) {
	p := &t.plns[pi]
	if len(p.leaves) >= t.plnCap {
		t.rebuildInner()
		return
	}
	wasLast := li == len(p.leaves)-1
	p.leaves = append(p.leaves, 0)
	copy(p.leaves[li+2:], p.leaves[li+1:])
	p.leaves[li] = l1
	p.leaves[li+1] = l2
	var zero K
	p.seps = append(p.seps, zero)
	copy(p.seps[li+1:], p.seps[li:])
	p.seps[li] = sep
	if wasLast {
		p.maxKey = t.leafBound(l2)
	}
}

// --- micro-logs -----------------------------------------------------------------

func (t *Index[K, V]) splitLog() scm.MicroLog { return t.pool.MicroLog(t.meta+mOffSplitLog, 4) }
func (t *Index[K, V]) delLog() scm.MicroLog   { return t.pool.MicroLog(t.meta+mOffDelLog, 4) }

// --- operations -------------------------------------------------------------------

func (t *Index[K, V]) doFind(k K) (int, uint64, bool) {
	if len(t.plns) == 0 {
		return -1, 0, false
	}
	_, _, l := t.findLeaf(k)
	idx, live := t.findInLeaf(l, k)
	if !live {
		return -1, 0, false
	}
	return idx, l, true
}

// doInsert appends the entry, splitting (or compacting) the leaf first when
// its log is full.
func (t *Index[K, V]) doInsert(flag uint64, k K, v V) error {
	if len(t.plns) == 0 {
		if err := t.firstLeaf(); err != nil {
			return err
		}
	}
	pi, li, l := t.findLeaf(k)
	for t.leafCount(l) >= t.leafCap {
		// Splitting can drop an all-dead leaf, rerouting the key to a
		// neighbor that may itself be full — loop until there is room.
		if err := t.splitLeaf(pi, li, l); err != nil {
			return err
		}
		pi, li, l = t.findLeaf(k)
	}
	return t.appendEntry(l, flag, k, v)
}

func (t *Index[K, V]) firstLeaf() error {
	ptr, err := t.pool.Alloc(t.meta+mOffHead, t.leafSize())
	if err != nil {
		return err
	}
	t.kc.WriteInf(t.pool, ptr.Offset+lOffBound)
	t.plns = append(t.plns, pln[K]{leaves: []uint64{ptr.Offset}, maxKey: t.kc.Inf()})
	return nil
}

// splitLeaf compacts the full leaf's live entries into two fresh leaves
// (sorted, half each) under the split micro-log, relinks the list, frees the
// old leaf, and updates the DRAM parent. An arena that runs out midway rolls
// the split back, as recovery would, and leaves the old leaf in place.
func (t *Index[K, V]) splitLeaf(pi, li int, l uint64) error {
	live := t.liveEntries(l)
	if len(live) <= 1 {
		// Nothing (or one entry) survives the log: compact 1:1 instead of
		// splitting. Leaves are never removed — their routing bounds are
		// immutable, which keeps the directory consistent forever.
		return t.compactLeaf(pi, li, l, live)
	}
	log := t.splitLog()
	log.Set(0, scm.PPtr{ArenaID: t.pool.ID(), Offset: l})
	if _, err := t.pool.Alloc(log.Off(1), t.leafSize()); err != nil {
		log.Reset()
		return err
	}
	if _, err := t.pool.Alloc(log.Off(2), t.leafSize()); err != nil {
		t.abandonSplit(log)
		return err
	}
	n1, n2 := log.P(1).Offset, log.P(2).Offset
	half := (len(live) + 1) / 2
	t.fillLeaf(n1, l, live[:half], scm.PPtr{ArenaID: t.pool.ID(), Offset: n2})
	t.fillLeaf(n2, l, live[half:], t.leafNext(l))
	sep := t.entryKey(l, live[half-1])
	if err := t.kc.Write(t.pool, n1+lOffBound, sep); err != nil {
		t.abandonSplit(log)
		return err
	}
	if old := t.leafBound(l); t.kc.Covers(old, sep) {
		t.kc.Adopt(t.pool, n2+lOffBound, l+lOffBound, old)
	} else {
		// The split leaf was the clamp target holding over-bound keys: the
		// upper half keeps covering everything greater.
		t.kc.WriteInf(t.pool, n2+lOffBound)
	}
	// Link: one p-atomic pointer update publishes both leaves.
	prev := t.prevLeafOf(pi, li)
	if prev == 0 {
		t.setHead(scm.PPtr{ArenaID: t.pool.ID(), Offset: n1})
	} else {
		log.Set(3, scm.PPtr{ArenaID: t.pool.ID(), Offset: prev})
		t.setLeafNext(prev, scm.PPtr{ArenaID: t.pool.ID(), Offset: n1})
	}
	t.pool.Free(log.Off(0), t.leafSize())
	log.Reset()
	t.replaceLeafInPLN(pi, li, sep, n1, n2)
	return nil
}

// abandonSplit frees the new leaves of an unlinked split and resets the log:
// recovery's roll-back, run in place. The old leaf still owns every key
// block the new leaves point at.
func (t *Index[K, V]) abandonSplit(log scm.MicroLog) {
	t.pool.Free(log.Off(1), t.leafSize())
	t.pool.Free(log.Off(2), t.leafSize())
	log.Reset()
}

// fillLeaf copies the given live entries of src into the fresh leaf dst and
// persists count and next pointer. Variable-size keys keep pointing at the
// same key blocks; ownership moves with the only live reference.
func (t *Index[K, V]) fillLeaf(dst, src uint64, idxs []int, next scm.PPtr) {
	es := t.entrySize
	for i, e := range idxs {
		buf := t.pool.ReadBytes(t.entryOff(src, e), es)
		t.pool.WriteBytes(t.entryOff(dst, i), buf)
	}
	t.pool.Persist(dst+t.entriesOff, uint64(len(idxs))*es)
	t.pool.WritePPtr(dst+lOffNext, next)
	t.pool.Persist(dst+lOffNext, scm.PPtrSize)
	t.pool.WriteU64(dst+lOffCount, uint64(len(idxs)))
	t.pool.Persist(dst+lOffCount, 8)
}

// compactLeaf replaces a log-full leaf that has a single live entry with a
// fresh leaf holding just that entry (1:1 replacement, no separator change).
func (t *Index[K, V]) compactLeaf(pi, li int, l uint64, live []int) error {
	log := t.splitLog()
	log.Set(0, scm.PPtr{ArenaID: t.pool.ID(), Offset: l})
	if _, err := t.pool.Alloc(log.Off(1), t.leafSize()); err != nil {
		log.Reset()
		return err
	}
	n1 := log.P(1).Offset
	t.fillLeaf(n1, l, live, t.leafNext(l))
	t.kc.Copy(t.pool, n1+lOffBound, l+lOffBound)
	prev := t.prevLeafOf(pi, li)
	if prev == 0 {
		t.setHead(scm.PPtr{ArenaID: t.pool.ID(), Offset: n1})
	} else {
		log.Set(3, scm.PPtr{ArenaID: t.pool.ID(), Offset: prev})
		t.setLeafNext(prev, scm.PPtr{ArenaID: t.pool.ID(), Offset: n1})
	}
	t.pool.Free(log.Off(0), t.leafSize())
	log.Reset()
	t.plns[pi].leaves[li] = n1
	return nil
}

// recoverLogs replays the split and delete micro-logs.
func (t *Index[K, V]) recoverLogs() {
	if sl := t.splitLog(); !sl.P(0).IsNull() || !sl.P(1).IsNull() || !sl.P(2).IsNull() || !sl.P(3).IsNull() {
		cur, n1p, n2p, prev := sl.P(0), sl.P(1), sl.P(2), sl.P(3)
		linked := false
		if !n1p.IsNull() {
			if !prev.IsNull() {
				linked = t.leafNext(prev.Offset) == n1p
			} else {
				linked = t.head() == n1p
			}
		}
		switch {
		case cur.IsNull():
			// The old leaf was already freed: the split completed except for
			// the log reset.
		case !linked:
			// Roll back: discard the half-built leaves; the old leaf is
			// intact and still linked.
			if !n1p.IsNull() {
				t.pool.Free(sl.Off(1), t.leafSize())
			}
			if !n2p.IsNull() {
				t.pool.Free(sl.Off(2), t.leafSize())
			}
		default:
			// Linked: roll forward by freeing the old leaf.
			t.pool.Free(sl.Off(0), t.leafSize())
		}
		sl.Reset()
	}
	if dl := t.delLog(); !dl.P(0).IsNull() || !dl.P(1).IsNull() {
		cur, prev := dl.P(0), dl.P(1)
		if !cur.IsNull() {
			unlinked := false
			if !prev.IsNull() {
				unlinked = t.leafNext(prev.Offset) != cur
			} else {
				unlinked = t.head() != cur
			}
			if unlinked {
				t.pool.Free(dl.Off(0), t.leafSize())
			}
		}
		dl.Reset()
	}
}

// --- public API ------------------------------------------------------------------

// Find returns the value stored under key (for var keys, a copy).
func (t *Index[K, V]) Find(key K) (V, bool) {
	e, l, ok := t.doFind(key)
	if !ok {
		var zero V
		return zero, false
	}
	return t.entryVal(l, e), true
}

// Insert appends a key-value pair. Inserting an existing key acts as an
// update (the append-only log keeps only the latest entry live).
func (t *Index[K, V]) Insert(key K, value V) error {
	_, _, existed := t.doFind(key)
	if err := t.doInsert(entryInsert, key, value); err != nil {
		return err
	}
	if !existed {
		t.size++
	}
	return nil
}

// Update rewrites the value under key; absent keys report false.
func (t *Index[K, V]) Update(key K, value V) (bool, error) {
	if _, _, ok := t.doFind(key); !ok {
		return false, nil
	}
	return true, t.doInsert(entryInsert, key, value)
}

// Upsert inserts or updates.
func (t *Index[K, V]) Upsert(key K, value V) error { return t.Insert(key, value) }

// Delete appends a tombstone for key. The tombstone carries its own copy of
// a variable-size key, so it can run out of arena like an insert.
func (t *Index[K, V]) Delete(key K) (bool, error) {
	if _, _, ok := t.doFind(key); !ok {
		return false, nil
	}
	var zero V
	if err := t.doInsert(entryDelete, key, zero); err != nil {
		return false, err
	}
	t.size--
	return true, nil
}

// Scan visits live pairs with key >= from in ascending order until fn
// returns false, walking the leaf list.
func (t *Index[K, V]) Scan(from K, fn func(k K, v V) bool) {
	if len(t.plns) == 0 {
		return
	}
	_, _, l := t.findLeaf(from)
	for {
		for _, e := range t.liveEntries(l) {
			if t.kc.Compare(t.entryKey(l, e), from) < 0 {
				continue
			}
			if !fn(t.entryKey(l, e), t.entryVal(l, e)) {
				return
			}
		}
		next := t.leafNext(l)
		if next.IsNull() {
			return
		}
		l = next.Offset
	}
}
