package core

import (
	"fmt"

	"fptree/internal/scm"
)

// DefaultBulkFill is the leaf fill factor used by BulkLoad, matching the
// ~70% node fill the paper's Figure 8 measurement uses.
const DefaultBulkFill = 0.7

// bulkLoad populates an empty tree from n sorted pairs, delivered by at(i),
// far faster than repeated inserts: leaves are written sequentially at the
// given fill factor (0 = DefaultBulkFill) and linked as they complete, then
// the inner nodes are built in one pass — the same procedure recovery uses.
// Bulk loading requires leaf groups and a single-threaded tree.
//
// Each leaf's high key is its max key, the separator the build puts right of
// it. Crash consistency: each leaf is made durable with its validity bitmap
// still zero, then linked into the list, and only then is the bitmap
// committed. The list is therefore a consistent prefix of the load at every
// instant, and — crucially — a leaf that is not reachable from the list
// never carries a nonzero durable bitmap. (Committing the bitmap before the
// link looks equally safe but is not: recovery would reclassify the
// unreachable leaf as free while its durable bitmap still marks the dead
// slots valid, and the next firstLeaf reuse would resurrect them.) Key
// blocks the var codec already published into an unlinked leaf's slots are
// reclaimed by recovery's free-leaf sweep. A bulk load that returns a
// non-nil error mid-way (allocation failure) leaves carved leaves behind;
// reopen the pool to reclaim them before using the tree.
func (e *engine[K, V]) bulkLoad(n int, fill float64, at func(int) (K, V)) error {
	if e.root.Load().cnt.Load() != 0 || !e.leafList.first().IsNull() {
		return fmt.Errorf("fptree: BulkLoad requires an empty tree")
	}
	if !e.groups.enabled() {
		return fmt.Errorf("fptree: BulkLoad requires leaf groups")
	}
	if fill == 0 {
		fill = DefaultBulkFill
	}
	if fill <= 0 || fill > 1 {
		return fmt.Errorf("fptree: fill factor %v out of (0,1]", fill)
	}
	for i := 0; i < n; i++ {
		k, _ := at(i)
		if err := e.cdc.validateKey(k); err != nil {
			return err
		}
		if i > 0 {
			if prev, _ := at(i - 1); e.cdc.less(k, prev) {
				return fmt.Errorf("fptree: BulkLoad input must be sorted by key")
			}
		}
	}
	per := int(float64(e.sh.cap) * fill)
	if per < 1 {
		per = 1
	}
	leaves := make([]uint64, 0, (n+per-1)/per)
	bounds := make([]K, 0, (n+per-1)/per)
	prev := uint64(0)
	for base := 0; base < n; base += per {
		end := base + per
		if end > n {
			end = n
		}
		leaf, err := e.groups.getLeaf()
		if err != nil {
			return err
		}
		var bm uint64
		var maxK K
		for s := 0; s < end-base; s++ {
			k, v := at(base + s)
			if e.cdc.ownsBlock(k) {
				e.markKeyBlocks()
			}
			if err := e.cdc.writeSlot(leaf, s, k, v, -1); err != nil {
				return err
			}
			if e.sh.hasFP {
				e.pool.WriteU8(leaf+uint64(s), e.cdc.fingerprint(k))
			}
			bm |= 1 << s
			maxK = k
		}
		var high [maxHighSize]byte
		e.cdc.putHigh(maxK, high[:e.sh.highSize])
		e.pool.WriteU64(leaf+e.sh.offBitmap, 0)
		e.pool.WritePPtr(leaf+e.sh.offNext, scm.PPtr{})
		e.pool.WriteBytes(leaf+e.sh.offHigh, high[:e.sh.highSize])
		e.pool.Persist(leaf, e.sh.size)
		if prev == 0 {
			e.leafList.setFirst(e.leafList.ptr(leaf))
		} else {
			e.leafList.setAfter(prev, e.leafList.ptr(leaf))
		}
		e.persistLeafHeader(leaf, bm)
		prev = leaf
		leaves = append(leaves, leaf)
		bounds = append(bounds, maxK)
		e.size.Add(int64(end - base))
	}
	e.root.Store(buildInnerW(leaves, bounds, e.maxKids(), 1, e.cdc.prefix))
	return nil
}
