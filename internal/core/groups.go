package core

import (
	"encoding/binary"
	"fmt"

	"fptree/internal/scm"
)

// groupAlloc implements the amortized persistent allocations of Section 4.3
// and Appendix B: leaves are carved out of persistently linked groups of
// GroupSize leaves, and a volatile vector tracks the leaves that are free.
//
// Persistent state: the group list, a stack whose top is the metadata
// block's headGroup cell and whose links are each group's next pointer, plus
// the freeLeaf micro-log. Volatile state: the free-leaf vector and per-group
// usage counters, both rebuilt during recovery by comparing group membership
// with the leaf list.
//
// Group block layout: next PPtr | pad to one cache line | GroupSize × leaf.
type groupAlloc struct {
	pool     *scm.Pool
	m        meta
	list     plist
	leafSize uint64
	size     int // leaves per group; 0 = groups disabled

	free      []uint64          // offsets of free leaves, LIFO
	used      map[uint64]int    // group offset -> number of in-tree leaves
	leafGroup map[uint64]uint64 // leaf offset -> its group offset
}

func (g *groupAlloc) init(m meta, list plist, leafSize uint64, size int) {
	g.pool, g.m, g.list, g.leafSize, g.size = m.pool, m, list, leafSize, size
	if size > 0 {
		g.used = make(map[uint64]int)
		g.leafGroup = make(map[uint64]uint64)
	}
}

func (g *groupAlloc) enabled() bool { return g.size > 0 }

func (g *groupAlloc) groupBytes() uint64 {
	return scm.LineSize + uint64(g.size)*g.leafSize
}

func (g *groupAlloc) leafOffsets(group uint64) []uint64 {
	out := make([]uint64, g.size)
	for i := range out {
		out[i] = group + scm.LineSize + uint64(i)*g.leafSize
	}
	return out
}

// getLeaf pops a free leaf, pushing a new group when the vector is empty
// (Algorithm 10). The push is one allocation into the headGroup cell whose
// contents name the old top as the group's next: the allocator makes the
// group durable, then publishes it, then retires its intent, so a crash
// either rolls the group back to the free list or leaves it on the stack.
func (g *groupAlloc) getLeaf() (uint64, error) {
	if len(g.free) == 0 {
		var next [scm.PPtrSize]byte
		top := g.list.first()
		binary.LittleEndian.PutUint64(next[:], top.ArenaID)
		binary.LittleEndian.PutUint64(next[8:], top.Offset)
		ptr, err := g.pool.AllocInit(g.list.head, g.groupBytes(), next[:])
		if err != nil {
			return 0, err
		}
		g.used[ptr.Offset] = 0
		for _, off := range g.leafOffsets(ptr.Offset) {
			g.leafGroup[off] = ptr.Offset
			g.free = append(g.free, off)
		}
	}
	off := g.free[len(g.free)-1]
	g.free = g.free[:len(g.free)-1]
	g.used[g.leafGroup[off]]++
	return off, nil
}

// freeLeaf returns a leaf to the vector; when its whole group becomes free
// the group is unlinked under the freeLeaf micro-log and deallocated
// (Algorithm 12).
func (g *groupAlloc) freeLeaf(leaf uint64) {
	group := g.leafGroup[leaf]
	g.used[group]--
	if g.used[group] > 0 || len(g.used) == 1 {
		// Keep the last group even when empty: the next insert would
		// otherwise re-allocate it immediately.
		g.free = append(g.free, leaf)
		return
	}
	// Drop the group's leaves from the volatile vector.
	kept := g.free[:0]
	for _, off := range g.free {
		if g.leafGroup[off] != group {
			kept = append(kept, off)
		}
	}
	g.free = kept

	var prev uint64
	if g.list.first().Offset != group {
		prev = g.prevGroup(group)
	}
	g.list.unlink(g.m.freeLeafLog(), group, prev, false, g.release)

	for _, off := range g.leafOffsets(group) {
		delete(g.leafGroup, off)
	}
	delete(g.used, group)
}

// release deallocates the group log names, nulling its cell.
func (g *groupAlloc) release(log scm.MicroLog) { g.pool.Free(log.Off(0), g.groupBytes()) }

// prevGroup walks the persistent list for the predecessor of group. Group
// deallocations are rare (a whole group must empty), so the walk is fine.
func (g *groupAlloc) prevGroup(group uint64) uint64 {
	p := g.list.first()
	for !p.IsNull() {
		next := g.list.after(p.Offset)
		if next.Offset == group {
			return p.Offset
		}
		p = next
	}
	panic(fmt.Sprintf("fptree: group %#x not in group list", group))
}

// recover replays the freeLeaf micro-log (Algorithm 13). It uses only
// persistent state; the volatile vector is rebuilt afterwards. A push needs
// no replay: the allocator's own recovery settles it.
func (g *groupAlloc) recover() {
	if g.enabled() {
		g.list.recoverUnlink(g.m.freeLeafLog(), g.release)
	}
}

// rebuildFreeVector reconstructs the volatile free vector and usage counters
// after recovery: a leaf is free exactly when it belongs to a group but is
// not linked in the tree's leaf list.
func (g *groupAlloc) rebuildFreeVector(inTree []uint64) {
	if !g.enabled() {
		return
	}
	g.free = g.free[:0]
	clear(g.used)
	clear(g.leafGroup)
	live := make(map[uint64]bool, len(inTree))
	for _, off := range inTree {
		live[off] = true
	}
	for p := g.list.first(); !p.IsNull(); p = g.list.after(p.Offset) {
		g.used[p.Offset] = 0
		for _, off := range g.leafOffsets(p.Offset) {
			g.leafGroup[off] = p.Offset
			if live[off] {
				g.used[p.Offset]++
			} else {
				g.free = append(g.free, off)
			}
		}
	}
}

// checkInvariants validates the volatile bookkeeping against the persistent
// group list.
func (g *groupAlloc) checkInvariants() error {
	if !g.enabled() {
		return nil
	}
	seen := 0
	for p := g.list.first(); !p.IsNull(); p = g.list.after(p.Offset) {
		seen++
		if _, ok := g.used[p.Offset]; !ok {
			return fmt.Errorf("group %#x in persistent list but not tracked", p.Offset)
		}
	}
	if seen != len(g.used) {
		return fmt.Errorf("tracked %d groups, persistent list has %d", len(g.used), seen)
	}
	for _, off := range g.free {
		if _, ok := g.leafGroup[off]; !ok {
			return fmt.Errorf("free leaf %#x belongs to no tracked group", off)
		}
	}
	return nil
}
