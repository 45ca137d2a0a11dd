package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"fptree/internal/htm"
	"fptree/internal/scm"
)

// groupAlloc implements the amortized persistent allocations of Section 4.3
// and Appendix B: leaves are carved out of persistently linked groups of
// GroupSize leaves, and a volatile vector tracks the leaves that are free.
//
// Persistent state: the group list, a stack whose top is the metadata
// block's headGroup cell and whose links are each group's next pointer, plus
// the freeLeaf micro-log. Volatile state: the free-leaf vector and the
// groups by ascending offset with their usage counters, both rebuilt during
// recovery from the leaf pass's one enumeration of the groups (recovery.go,
// groupTable). A leaf's group is found by binary search over the offsets.
//
// The concurrent trees split and delete on many goroutines, so pop, push and
// free run under mu, taken through the tree's controller like a node lock:
// free on the single-threaded trees, and its waiters watch the crash flag. A
// split holds it for a DRAM pop, except once per group push. The group
// stack's top cell shares a line of the metadata block with the leaf list's
// head cell, and a line may not be written while another goroutine flushes
// it, so every live write of the top — a push, an unlink of the top group —
// runs under the tree's headLock too, taken inside mu. firstLeaf therefore
// pops its leaf before it takes headLock.
//
// Group block layout: next PPtr | pad to one cache line | GroupSize × leaf.
type groupAlloc struct {
	pool     *scm.Pool
	m        meta
	list     plist
	leafSize uint64
	size     int // leaves per group; 0 = groups disabled

	mu htm.VersionLock

	free   []uint64 // offsets of free leaves, LIFO
	groups []uint64 // offsets of the groups on the stack, ascending
	used   []int    // used[k]: in-tree leaves of groups[k]
}

// init sets the allocator up over the group stack of m; headLock is the lock
// of the metadata line its top shares with the leaf list's head.
func (g *groupAlloc) init(m meta, cc concurrency, headLock *htm.VersionLock, leafSize uint64, size int) {
	g.pool, g.m, g.leafSize, g.size = m.pool, m, leafSize, size
	g.list = plist{m.pool, m.base + mOffHeadGroup, 0, 0, cc, headLock}
}

func (g *groupAlloc) lock()   { g.list.cc.lockNode(&g.mu) }
func (g *groupAlloc) unlock() { g.list.cc.unlockNodeNoBump(&g.mu) }

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

// leafIn finds leaf among groups of size leaves of leafSize bytes whose
// offsets, ascending, are offs: k indexes offs and j the leaf in its group.
// k is -1 when no group holds leaf.
func leafIn(offs []uint64, leaf, leafSize uint64, size int) (k, j int) {
	k, _ = slices.BinarySearch(offs, leaf)
	k-- // the last group below leaf
	if k < 0 || leaf < offs[k]+scm.LineSize {
		return -1, 0
	}
	rel := leaf - offs[k] - scm.LineSize
	if rel%leafSize != 0 || rel/leafSize >= uint64(size) {
		return -1, 0
	}
	return k, int(rel / leafSize)
}

// group is the index in groups of the group holding leaf, or -1.
func (g *groupAlloc) group(leaf uint64) int {
	k, _ := leafIn(g.groups, leaf, g.leafSize, g.size)
	return k
}

// getLeaf pops a free leaf, pushing a new group when the vector is empty
// (Algorithm 10). The push is one allocation into the headGroup cell whose
// contents name the old top as the group's next: the allocator makes the
// group durable, then publishes it, then retires its intent, so a crash
// either rolls the group back to the free list or leaves it on the stack.
func (g *groupAlloc) getLeaf() (uint64, error) {
	g.lock()
	defer g.unlock()
	if len(g.free) == 0 {
		var next [scm.PPtrSize]byte
		top := g.list.first()
		binary.LittleEndian.PutUint64(next[:], top.ArenaID)
		binary.LittleEndian.PutUint64(next[8:], top.Offset)
		g.list.cc.lockNode(g.list.lock)
		ptr, err := g.pool.AllocInit(g.list.head, g.groupBytes(), next[:])
		g.list.cc.unlockNodeNoBump(g.list.lock)
		if err != nil {
			return 0, err
		}
		k, _ := slices.BinarySearch(g.groups, ptr.Offset)
		g.groups = slices.Insert(g.groups, k, ptr.Offset)
		g.used = slices.Insert(g.used, k, 0)
		g.free = append(g.free, g.leafOffsets(ptr.Offset)...)
	}
	off := g.free[len(g.free)-1]
	g.free = g.free[:len(g.free)-1]
	g.used[g.group(off)]++
	return off, nil
}

// freeLeaf returns a leaf to the vector; when its whole group becomes free
// the group is unlinked under the freeLeaf micro-log and deallocated
// (Algorithm 12), unless it is the last group or the allocator could not
// reuse it (scm.Reusable).
func (g *groupAlloc) freeLeaf(leaf uint64) {
	g.lock()
	defer g.unlock()
	k := g.group(leaf)
	g.used[k]--
	if g.used[k] > 0 || len(g.groups) == 1 || !scm.Reusable(g.groupBytes()) {
		// Keep the last group even when empty: the next insert would
		// otherwise re-allocate it immediately. Keep a group larger than
		// the allocator's largest size class too: Free would drop its
		// bytes for good, where the tree's next splits reuse its leaves.
		g.free = append(g.free, leaf)
		return
	}
	// Drop the group's leaves from the volatile vector.
	group := g.groups[k]
	g.free = slices.DeleteFunc(g.free, func(off uint64) bool { return off > group && off < group+g.groupBytes() })

	var prev uint64
	if g.list.first().Offset != group {
		prev = g.prevGroup(group)
	}
	g.list.unlink(g.m.freeLeafLog(), group, prev, false, g.release)
	g.groups = slices.Delete(g.groups, k, k+1)
	g.used = slices.Delete(g.used, k, k+1)
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
// after recovery from the leaf pass's enumeration: a leaf is free exactly
// when it belongs to a group but is not linked in the tree's leaf list. The
// vector lists the free leaves in the order of the group walk.
func (g *groupAlloc) rebuildFreeVector(t *groupTable) {
	g.free = g.free[:0]
	g.groups = t.sorted
	g.used = make([]int, len(t.sorted))
	for k, gi := range t.order {
		for j := range g.size {
			if t.live[gi*g.size+j] {
				g.used[k]++
			}
		}
	}
	for i, live := range t.live {
		if !live {
			g.free = append(g.free, t.leaf(i))
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
		if _, ok := slices.BinarySearch(g.groups, p.Offset); !ok {
			return fmt.Errorf("group %#x in persistent list but not tracked", p.Offset)
		}
	}
	if seen != len(g.groups) {
		return fmt.Errorf("tracked %d groups, persistent list has %d", len(g.groups), seen)
	}
	for _, off := range g.free {
		if g.group(off) < 0 {
			return fmt.Errorf("free leaf %#x belongs to no tracked group", off)
		}
	}
	return nil
}
