package core

import (
	"bytes"
	"fmt"
	"testing"

	"fptree/internal/crashtest"
	"fptree/internal/scm"
)

// TestGroupCrashProtocol pins the leaf-group stack's crash protocol. Four
// operations — a group push onto an empty and onto a non-empty stack, the
// unlink of the top group and of a group below it — are each crashed before
// every persist, and every crash is recovered from several images of the
// lines dirty at that moment (crashtest.TearsWide). After each recovery the tree's
// invariants hold, every acknowledged key is present, and the bytes the
// allocator counts as owned are exactly the metadata block, the linked
// groups and the live keys' blocks: a group is neither leaked nor both
// linked and free. A push costs 5 persists, all of them the allocator's.
func TestGroupCrashProtocol(t *testing.T) {
	cfg := Config{LeafCap: 4, InnerFanout: 4, GroupSize: 2, ValueSize: 8}
	key := func(i int) []byte { return []byte(fmt.Sprintf("group-protocol-key-%04d", i)) } // > 16 B: own block
	val := func(i int) []byte { return []byte(fmt.Sprintf("v%07d", i)) }

	pool := scm.NewPool(256<<10, scm.LatencyConfig{CacheBytes: -1})
	tr, err := CreateVar(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := map[int]bool{}
	liveKeys := func() map[int]bool {
		m := make(map[int]bool, len(live))
		for i := range live {
			m[i] = true
		}
		return m
	}
	type scenario struct {
		name   string
		base   *scm.Pool
		acked  map[int]bool // keys present before the operation, less its own key
		opKey  int
		insert bool
		groups [2]int // group count before and after the operation
	}
	var scs []scenario
	groupCount := func() int { return len(tr.groups.used) }

	// (a) and (b): the inserts that push the first and the second group.
	for i := 0; groupCount() < 3; i++ {
		before, base, acked := groupCount(), pool.Clone(), liveKeys()
		if err := tr.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		live[i] = true
		if after := groupCount(); after > before && before < 2 {
			name := "push-empty"
			if before > 0 {
				name = "push-nonempty"
			}
			scs = append(scs, scenario{name, base, acked, i, true, [2]int{before, after}})
		}
	}
	// Groups from the top of the stack down; the leaf keys each holds.
	var stack []uint64
	for p := tr.groups.list.first(); !p.IsNull(); p = tr.groups.list.after(p.Offset) {
		stack = append(stack, p.Offset)
	}
	if len(stack) != 3 {
		t.Fatalf("%d groups on the stack, want 3", len(stack))
	}
	index := map[string]int{}
	for i := range live {
		index[string(key(i))] = i
	}
	keysOf := func(group uint64) []int {
		var ks []int
		for p := tr.leafList.first(); !p.IsNull(); p = tr.leafList.after(p.Offset) {
			if tr.groups.leafGroup[p.Offset] != group {
				continue
			}
			bm := tr.leafBitmap(p.Offset)
			for s := 0; s < tr.sh.cap; s++ {
				if bm&(1<<s) != 0 {
					ks = append(ks, index[string(tr.cdc.slotKey(p.Offset, s))])
				}
			}
		}
		return ks
	}
	// (c) and (d): the deletes that empty the top group and the middle one.
	// Every other key of the group is deleted first, on a copy of the tree.
	for _, u := range []struct {
		name  string
		group uint64
	}{{"unlink-top", stack[0]}, {"unlink-middle", stack[1]}} {
		ks := keysOf(u.group)
		if len(ks) == 0 {
			t.Fatalf("%s: group %#x holds no key", u.name, u.group)
		}
		base := pool.Clone()
		e, err := OpenVar(base)
		if err != nil {
			t.Fatal(err)
		}
		acked := liveKeys()
		for _, i := range ks {
			delete(acked, i)
		}
		for _, i := range ks[1:] {
			if ok, err := e.Delete(key(i)); !ok || err != nil {
				t.Fatalf("%s: Delete(%d) = %v, %v", u.name, i, ok, err)
			}
		}
		scs = append(scs, scenario{u.name, base, acked, ks[0], false, [2]int{3, 2}})
	}

	verify := func(e *VarTree, acked map[int]bool, opKey int) error {
		if err := e.CheckInvariants(); err != nil {
			return err
		}
		for i := range acked {
			if v, ok := e.Find(key(i)); !ok || !bytes.Equal(v, val(i)) {
				return fmt.Errorf("acked key %d = %q, %v", i, v, ok)
			}
		}
		if v, ok := e.Find(key(opKey)); ok && !bytes.Equal(v, val(opKey)) {
			return fmt.Errorf("key %d of the operation = %q", opKey, v)
		}
		return checkGroupsOwned(e)
	}
	for _, sc := range scs {
		t.Run(sc.name, func(t *testing.T) {
			op := func(e *VarTree) error {
				if sc.insert {
					return e.Insert(key(sc.opKey), val(sc.opKey))
				}
				_, err := e.Delete(key(sc.opKey))
				return err
			}
			// The operation runs whole, then once per crash point.
			e, err := OpenVar(sc.base.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if got := len(e.groups.used); got != sc.groups[0] {
				t.Fatalf("%d groups before the operation, want %d", got, sc.groups[0])
			}
			if err := op(e); err != nil {
				t.Fatal(err)
			}
			if got := len(e.groups.used); got != sc.groups[1] {
				t.Fatalf("%d groups after the operation, want %d", got, sc.groups[1])
			}
			images := crashtest.TearsWide(t, sc.base, func(p *scm.Pool) (func() error, error) {
				e, err := OpenVar(p)
				return func() error { return op(e) }, err
			}, func(img *scm.Pool) error {
				e, err := OpenVar(img)
				if err != nil {
					return fmt.Errorf("recovery: %v", err)
				}
				if err := verify(e, sc.acked, sc.opKey); err != nil {
					return err
				}
				// Work on: inserts pop what recovery left free, and a group
				// both linked and free would be handed out twice.
				acked := map[int]bool{}
				for i := range sc.acked {
					acked[i] = true
				}
				for i := 1000; i < 1012; i++ {
					if err := e.Insert(key(i), val(i)); err != nil {
						return err
					}
					acked[i] = true
				}
				return verify(e, acked, sc.opKey)
			})
			t.Logf("%d torn images", images)
		})
	}

	// A push onto an empty and onto a non-empty stack is the allocator's one
	// AllocInit: 5 persists, and the new top links the old one.
	for _, sc := range scs[:2] {
		e, err := OpenVar(sc.base.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if len(e.groups.free) != 0 {
			t.Fatalf("%s: %d free leaves before the push", sc.name, len(e.groups.free))
		}
		top := e.groups.list.first()
		_, f0 := e.pool.Stats().FlushFence()
		if _, err := e.groups.getLeaf(); err != nil {
			t.Fatal(err)
		}
		if _, f1 := e.pool.Stats().FlushFence(); f1-f0 != 5 {
			t.Errorf("%s: %d persists per push, want 5", sc.name, f1-f0)
		}
		if next := e.groups.list.after(e.groups.list.first().Offset); next != top {
			t.Errorf("%s: pushed group links %v, want the old top %v", sc.name, next, top)
		}
	}
}

// checkGroupsOwned is checkNoLeak for a grouped tree: the bytes carved from
// the arena are the metadata block, the linked groups, the key blocks of
// the live slots and what the free lists hold, each exactly once.
func checkGroupsOwned(e *VarTree) error {
	c := e.cdc.(*varCodec)
	owned := roundUp(metaSize(e.cfg.NumLogs), scm.LineSize)
	for p := e.groups.list.first(); !p.IsNull(); p = e.groups.list.after(p.Offset) {
		owned += roundUp(e.groups.groupBytes(), scm.LineSize)
	}
	for p := e.leafList.first(); !p.IsNull(); p = e.leafList.after(p.Offset) {
		bm := e.leafBitmap(p.Offset)
		for s := 0; s < e.sh.cap; s++ {
			if h := c.slotCell(p.Offset, s); bm&(1<<s) != 0 && !h.inline() {
				owned += roundUp(h.klen, scm.LineSize)
			}
		}
	}
	carved := e.pool.AllocatedBytes() - e.pool.Root().Offset
	if free := e.pool.FreeListBytes(); owned+free != carved {
		return fmt.Errorf("%d bytes carved, %d owned by the tree + %d on free lists: %d unaccounted",
			carved, owned, free, int64(carved)-int64(owned+free))
	}
	return nil
}
