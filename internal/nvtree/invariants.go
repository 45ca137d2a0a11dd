package nvtree

import "fmt"

// CheckInvariants walks the whole tree and verifies the structural properties
// every crash-recovery state must preserve:
//
//   - the split and delete micro-logs are quiescent (all-null),
//   - every leaf's entry count fits its log capacity,
//   - every live key lies in the leaf's routing interval (prevBound, bound],
//   - routing bounds strictly ascend along the leaf list and only the last
//     leaf is unbounded,
//   - the DRAM directory (leaf parents plus separators) flattens to exactly
//     the persistent leaf list with separators equal to the leaf bounds,
//   - the cached size equals the total number of live entries.
//
// It returns nil when all hold, or an error naming the first violation.
func (t *Index[K, V]) CheckInvariants() error {
	if t.pool.ReadU64(t.meta+mOffMagic) != metaMagic {
		return fmt.Errorf("nvtree: bad metadata magic")
	}
	for i := 0; i < 4; i++ {
		if !t.splitLog().P(i).IsNull() {
			return fmt.Errorf("nvtree: split log slot %d not reset", i)
		}
	}
	for i := 0; i < 2; i++ {
		if !t.delLog().P(i).IsNull() {
			return fmt.Errorf("nvtree: delete log slot %d not reset", i)
		}
	}

	var leaves []uint64
	total := 0
	var prev K // exclusive lower bound of the current leaf
	first := true
	for p := t.head(); !p.IsNull(); p = t.leafNext(p.Offset) {
		l := p.Offset
		leaves = append(leaves, l)
		n := t.leafCount(l)
		if n < 0 || n > t.leafCap {
			return fmt.Errorf("nvtree: leaf %#x count %d out of range [0,%d]", l, n, t.leafCap)
		}
		bound := t.leafBound(l)
		unbounded := t.unbounded(bound)
		if unbounded && !t.leafNext(l).IsNull() {
			return fmt.Errorf("nvtree: interior leaf %#x has +infinity bound", l)
		}
		if !first && !unbounded && t.kc.Compare(bound, prev) <= 0 {
			return fmt.Errorf("nvtree: leaf %#x bound %v not above predecessor %v", l, bound, prev)
		}
		live := t.liveEntries(l)
		total += len(live)
		for _, e := range live {
			k := t.entryKey(l, e)
			if !first && t.kc.Compare(k, prev) <= 0 {
				return fmt.Errorf("nvtree: leaf %#x key %v below interval (>%v)", l, k, prev)
			}
			if !unbounded && t.kc.Compare(k, bound) > 0 {
				return fmt.Errorf("nvtree: leaf %#x key %v above bound %v", l, k, bound)
			}
		}
		prev, first = bound, false
	}
	if t.size != total {
		return fmt.Errorf("nvtree: cached size %d != %d live entries", t.size, total)
	}

	// The DRAM directory must mirror the persistent list exactly.
	at := 0
	for pi := range t.plns {
		p := &t.plns[pi]
		if len(p.leaves) == 0 {
			return fmt.Errorf("nvtree: empty leaf parent %d", pi)
		}
		for li, l := range p.leaves {
			if at >= len(leaves) {
				return fmt.Errorf("nvtree: directory lists %d+ leaves, list has %d", at+1, len(leaves))
			}
			if l != leaves[at] {
				return fmt.Errorf("nvtree: directory leaf (%d,%d)=%#x != list leaf %#x", pi, li, l, leaves[at])
			}
			if li < len(p.leaves)-1 {
				if t.kc.Compare(p.seps[li], t.leafBound(l)) != 0 {
					return fmt.Errorf("nvtree: separator (%d,%d)=%v != leaf bound %v", pi, li, p.seps[li], t.leafBound(l))
				}
			} else if t.kc.Compare(p.maxKey, t.leafBound(l)) != 0 {
				return fmt.Errorf("nvtree: parent %d max key %v != last leaf bound %v", pi, p.maxKey, t.leafBound(l))
			}
			at++
		}
	}
	if at != len(leaves) {
		return fmt.Errorf("nvtree: directory covers %d leaves, list has %d", at, len(leaves))
	}
	return nil
}
