package wbtree

import (
	"fmt"
	"math/bits"
)

// CheckInvariants verifies the structural properties every recovered state of
// the wBTree must satisfy:
//
//   - the root, split and delete micro-logs are quiescent (all-null),
//   - every node's bitmap has the slot-array-valid bit and only entry bits
//     below its capacity,
//   - the slot array covers every valid entry exactly once (it may carry
//     stale extras — the superset protocol allows them) in strictly
//     ascending key order,
//   - keys lie inside the routing interval (lo, hi] handed down by parent
//     separators; "+infinity" separators appear only in inner nodes, at most
//     once, and only as the last slot,
//   - all leaves sit at the same depth,
//   - the cached size equals the total number of valid leaf entries.
//
// It returns nil when all hold, or an error naming the first violation.
func (t *Index[K]) CheckInvariants() error {
	if t.pool.ReadU64(t.meta+mOffMagic) != metaMagic {
		return fmt.Errorf("wbtree: bad metadata magic")
	}
	for i := 0; i < 3; i++ {
		if !t.splitLog().P(i).IsNull() {
			return fmt.Errorf("wbtree: split log slot %d not reset", i)
		}
		if !t.rootLog().P(i).IsNull() {
			return fmt.Errorf("wbtree: root log slot %d not reset", i)
		}
		if !t.delLog().P(i).IsNull() {
			return fmt.Errorf("wbtree: delete log slot %d not reset", i)
		}
	}
	root := t.rootOff()
	if root == 0 {
		if t.size != 0 {
			return fmt.Errorf("wbtree: empty tree but cached size %d", t.size)
		}
		return nil
	}
	total, leafDepth := 0, -1
	err := t.checkNode(root, 0, ivBound[K]{}, ivBound[K]{inf: true}, &total, &leafDepth)
	if err != nil {
		return err
	}
	if t.size != total {
		return fmt.Errorf("wbtree: cached size %d != %d valid leaf entries", t.size, total)
	}
	return nil
}

// ivBound is one end of a routing interval: a key, or -/+infinity.
type ivBound[K any] struct {
	set bool // false = -infinity (only ever as a lower bound)
	inf bool // true = +infinity (only ever as an upper bound)
	k   K
}

// cmpBound three-way-compares entry e's key with the bound.
func (t *Index[K]) cmpBound(n uint64, e int, bd ivBound[K]) int {
	if t.entryIsInf(n, e) {
		if bd.inf {
			return 0
		}
		return 1
	}
	if bd.inf {
		return -1
	}
	return t.kc.Compare(t.entryKey(n, e), bd.k)
}

func (t *Index[K]) boundOf(n uint64, e int) ivBound[K] {
	if t.entryIsInf(n, e) {
		return ivBound[K]{inf: true}
	}
	return ivBound[K]{set: true, k: t.entryKey(n, e)}
}

func (t *Index[K]) checkNode(n uint64, depth int, lo, hi ivBound[K], total, leafDepth *int) error {
	leaf := t.nIsLeaf(n)
	capN := t.capOf(leaf)
	bm := t.nBitmap(n)
	if bm&slotValidBit == 0 {
		return fmt.Errorf("wbtree: node %#x missing slot-valid bit", n)
	}
	valid := bm &^ slotValidBit
	if high := valid >> capN; high != 0 {
		return fmt.Errorf("wbtree: node %#x bitmap %#x has entries beyond capacity %d", n, valid, capN)
	}
	cnt := bits.OnesCount64(valid)

	// The slot array may be a superset, but filtered through the bitmap it
	// must enumerate each valid entry exactly once, in ascending key order.
	var sl [64]byte
	t.pool.ReadInto(n, sl[:])
	listed := int(sl[0])
	if listed > 63 {
		return fmt.Errorf("wbtree: node %#x slot count %d out of range", n, listed)
	}
	var order []int
	var seen uint64
	for i := 0; i < listed; i++ {
		e := int(sl[1+i])
		if e >= capN {
			return fmt.Errorf("wbtree: node %#x slot %d names entry %d beyond capacity %d", n, i, e, capN)
		}
		if valid&(1<<e) == 0 {
			continue // stale superset slot
		}
		if seen&(1<<e) != 0 {
			return fmt.Errorf("wbtree: node %#x slot array lists entry %d twice", n, e)
		}
		seen |= 1 << e
		order = append(order, e)
	}
	if len(order) != cnt {
		return fmt.Errorf("wbtree: node %#x slot array covers %d of %d valid entries", n, len(order), cnt)
	}
	for i := 1; i < len(order); i++ {
		if t.cmpEntries(n, order[i-1], order[i]) >= 0 {
			return fmt.Errorf("wbtree: node %#x slots %d,%d out of key order", n, i-1, i)
		}
	}
	for i, e := range order {
		if t.entryIsInf(n, e) {
			// The +infinity separator is a clamp marker standing for "up to
			// the parent's bound": legal only as the last slot of an inner
			// node, and exempt from the upper-bound check.
			if leaf {
				return fmt.Errorf("wbtree: leaf %#x entry %d carries the +infinity separator", n, e)
			}
			if i != len(order)-1 {
				return fmt.Errorf("wbtree: node %#x +infinity separator at slot %d is not last", n, i)
			}
			continue
		}
		if lo.set && t.cmpBound(n, e, lo) <= 0 {
			return fmt.Errorf("wbtree: node %#x entry %d at or below lower bound", n, e)
		}
		if t.cmpBound(n, e, hi) > 0 {
			return fmt.Errorf("wbtree: node %#x entry %d above upper bound", n, e)
		}
	}

	if leaf {
		if *leafDepth < 0 {
			*leafDepth = depth
		} else if *leafDepth != depth {
			return fmt.Errorf("wbtree: leaf %#x at depth %d, expected %d", n, depth, *leafDepth)
		}
		*total += cnt
		return nil
	}
	if cnt == 0 {
		return fmt.Errorf("wbtree: inner node %#x has no children", n)
	}
	childLo := lo
	for i, e := range order {
		child := t.entryVal(n, e)
		if child == 0 {
			return fmt.Errorf("wbtree: node %#x entry %d has null child", n, e)
		}
		childHi := t.boundOf(n, e)
		if i == len(order)-1 {
			// The last child absorbs clamped overflow: its effective upper
			// bound is the parent's, not its own separator.
			childHi = hi
		}
		if err := t.checkNode(child, depth+1, childLo, childHi, total, leafDepth); err != nil {
			return err
		}
		childLo = t.boundOf(n, e)
	}
	return nil
}
