package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"fptree/internal/crashtest"
	"fptree/internal/scm"
)

// highKeyRig is one tree of the high-key tests: a key kind and a controller.
// Key number n orders as n does. handOver checks that the high key an unlink
// of victim hands to prev differs from prev's own in every word a torn write
// of their header line can keep apart.
type highKeyRig[K, V any] struct {
	cfg      Config
	cc       func(*scm.Pool) concurrency
	key      func(n int) K
	val      func(n int) V
	equal    func(a, b V) bool
	handOver func(e *engine[K, V], prev, victim uint64) bool
}

func (r highKeyRig[K, V]) create(p *scm.Pool) (*Index[K, V], error) {
	return create[K, V](p, r.cfg, r.cc(p))
}

func (r highKeyRig[K, V]) open(p *scm.Pool) (*Index[K, V], error) {
	return open[K, V](p, r.cc(p), nil)
}

// checkKeys finds every key of live in tr with its value.
func (r highKeyRig[K, V]) checkKeys(tr *Index[K, V], live map[int]bool) error {
	for n, ok := range live {
		if v, found := tr.Find(r.key(n)); ok && (!found || !r.equal(v, r.val(n))) {
			return fmt.Errorf("key %d: found %v", n, found)
		}
	}
	return nil
}

// highKeyControllers are the two controllers every high-key test runs under.
var highKeyControllers = []struct {
	name string
	cc   func(*scm.Pool) concurrency
}{
	{"st", func(*scm.Pool) concurrency { return nopCC{} }},
	{"cc", func(p *scm.Pool) concurrency { return occCC{p} }},
}

func fixedHighKeyRig(cc func(*scm.Pool) concurrency) highKeyRig[uint64, uint64] {
	return highKeyRig[uint64, uint64]{
		cfg: Config{LeafCap: 8, InnerFanout: 4}, cc: cc,
		key:   func(n int) uint64 { return uint64(n) },
		val:   func(n int) uint64 { return uint64(n) * 7 },
		equal: func(a, b uint64) bool { return a == b },
		handOver: func(e *engine[uint64, uint64], prev, victim uint64) bool {
			return e.pool.ReadU64(prev+e.sh.offHigh) != e.pool.ReadU64(victim+e.sh.offHigh)
		},
	}
}

func varHighKeyRig(cc func(*scm.Pool) concurrency) highKeyRig[[]byte, []byte] {
	return highKeyRig[[]byte, []byte]{
		cfg: Config{LeafCap: 8, InnerFanout: 4}, cc: cc,
		// 8 to 24 bytes: n%9 of 5 or more makes a pointer key.
		key:   func(n int) []byte { return []byte(fmt.Sprintf("hk%06d", n) + strings.Repeat("~", n%9*2)) },
		val:   func(n int) []byte { return val8(uint64(n)) },
		equal: bytes.Equal,
		// The victim stores no high key (its split key is a pointer key, a
		// length word of 0 and a zero cell) and prev an inline one: an image
		// that keeps the new cell with the old length holds a key neither
		// leaf ever had.
		handOver: func(e *engine[[]byte, []byte], prev, victim uint64) bool {
			_, pok := e.leafHigh(prev)
			_, vok := e.leafHigh(victim)
			return pok && !vok
		},
	}
}

// leafParents lists the leaf parents under n in key order.
func leafParents[K any](n *cInner[K], out []*cInner[K]) []*cInner[K] {
	if n.leafParent {
		return append(out, n)
	}
	for j := 0; j < int(n.cnt.Load()); j++ {
		out = leafParents(n.kids[j].Load(), out)
	}
	return out
}

// listPrev returns the list leaf before leaf, 0 for the head, and whether
// leaf is linked at all.
func listPrev[K, V any](e *engine[K, V], leaf uint64) (uint64, bool) {
	prev := uint64(0)
	for p := e.leafList.first(); !p.IsNull(); p = e.leafList.after(p.Offset) {
		if p.Offset == leaf {
			return prev, true
		}
		prev = p.Offset
	}
	return 0, false
}

// leafKeyNums returns the numbers of the live keys whose DRAM range is leaf's.
func leafKeyNums[K, V any](r highKeyRig[K, V], e *engine[K, V], leaf uint64, live map[int]bool) []int {
	var nums []int
	for n := range live {
		if ref := e.findLeafRef(r.key(n)); ref != nil && ref.off == leaf {
			nums = append(nums, n)
		}
	}
	return nums
}

// TestAbsorbedRangesSurviveRecovery empties three leaves in turn — the last
// child of a leaf parent, whose key range goes to its left neighbour and
// takes its high key along; a middle child, whose range goes right and
// leaves the left neighbour's high key as it was; and the head — then
// inserts into each range a leaf gave up, crashes, recovers and finds every
// key. A delete that handed a range left without the high key would leave
// the keys inserted there above their leaf's bound, where the recovered
// separators send a descent past them.
func TestAbsorbedRangesSurviveRecovery(t *testing.T) {
	for _, c := range highKeyControllers {
		t.Run("fixed-"+c.name, func(t *testing.T) { absorbedRanges(t, fixedHighKeyRig(c.cc)) })
		t.Run("var-"+c.name, func(t *testing.T) { absorbedRanges(t, varHighKeyRig(c.cc)) })
	}
}

func absorbedRanges[K, V any](t *testing.T, r highKeyRig[K, V]) {
	pool := newPool(16)
	tr, err := r.create(pool)
	if err != nil {
		t.Fatal(err)
	}
	live := map[int]bool{}
	for n := 10; n <= 1280; n += 10 {
		if err := tr.Insert(r.key(n), r.val(n)); err != nil {
			t.Fatal(err)
		}
		live[n] = true
	}
	parents := leafParents(tr.root.Load(), nil)
	if len(parents) < 4 {
		t.Fatalf("%d leaf parents, want 4 or more", len(parents))
	}
	last := parents[1].leaves[parents[1].cnt.Load()-1].Load().off
	var middle uint64
	for j := len(parents) - 2; j >= 2 && middle == 0; j-- {
		if parents[j].cnt.Load() >= 3 {
			middle = parents[j].leaves[1].Load().off
		}
	}
	if middle == 0 {
		t.Fatal("no leaf parent past the second has three children")
	}
	var absorbed []int
	for _, v := range []struct {
		name string
		leaf uint64
		left bool
	}{
		{"last child", last, true},
		{"middle child", middle, false},
		{"head", tr.leafList.first().Offset, false},
	} {
		prev, _ := listPrev(tr.engine, v.leaf)
		var prevHigh K
		if prev != 0 {
			prevHigh, _ = tr.leafHigh(prev)
		}
		high, _ := tr.leafHigh(v.leaf)
		nums := leafKeyNums(r, tr.engine, v.leaf, live)
		for _, n := range nums {
			if ok, err := tr.Delete(r.key(n)); err != nil || !ok {
				t.Fatalf("%s: delete %d: %v, %v", v.name, n, ok, err)
			}
			delete(live, n)
			absorbed = append(absorbed, n-5) // in (previous key, n]: the range the leaf gave up
		}
		if _, linked := listPrev(tr.engine, v.leaf); linked {
			t.Fatalf("%s: the emptied leaf is still linked", v.name)
		}
		if prev != 0 {
			want := prevHigh
			if v.left {
				want = high
			}
			if got, _ := tr.leafHigh(prev); tr.cdc.less(got, want) || tr.cdc.less(want, got) {
				t.Errorf("%s: left neighbour's high key %v, want %v (handed left: %v)", v.name, got, want, v.left)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
	}
	for _, n := range absorbed {
		if err := tr.Insert(r.key(n), r.val(n)); err != nil {
			t.Fatal(err)
		}
		live[n] = true
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	pool.Crash()
	re, err := r.open(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.checkKeys(re, live); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if re.Len() != len(live) {
		t.Fatalf("after recovery: Len %d, want %d", re.Len(), len(live))
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

// TestHighKeyTears crashes a split of a full leaf and the delete that empties
// the last child of a leaf parent — whose unlink hands the leaf's high key to
// its left neighbour — at every persist, with every torn image of the lines
// dirty there (crashtest.TearsWide), among them the split's and the unlink's
// write of header line 1 (next pointer and high key). Every image must
// recover with its invariants, every acked key and the leaf's key range:
// keys inserted into the range after recovery are found after another
// restart. The unlinked leaf's high key differs from its neighbour's in
// every word the line write changes: for var keys, whose cell and length word
// a tear can keep apart, it stores none and the neighbour an inline one.
func TestHighKeyTears(t *testing.T) {
	for _, c := range highKeyControllers {
		t.Run("fixed-"+c.name, func(t *testing.T) { highKeyTears(t, fixedHighKeyRig(c.cc)) })
		t.Run("var-"+c.name, func(t *testing.T) { highKeyTears(t, varHighKeyRig(c.cc)) })
	}
}

func highKeyTears[K, V any](t *testing.T, r highKeyRig[K, V]) {
	base := scm.NewPool(1<<20, scm.LatencyConfig{CacheBytes: -1})
	tr, err := r.create(base)
	if err != nil {
		t.Fatal(err)
	}
	live := map[int]bool{}
	put := func(n int) {
		if err := tr.Insert(r.key(n), r.val(n)); err != nil {
			t.Fatal(err)
		}
		live[n] = true
	}
	for n := 10; n <= 640; n += 10 {
		put(n)
	}
	// Fill the head leaf, so inserting 15 splits it, and leave one key in the
	// last child of a leaf parent, so deleting it unlinks the leaf and hands
	// its high key to its left neighbour.
	head := tr.leafList.first().Offset
	for _, n := range leafKeyNums(r, tr.engine, head, live) {
		if tr.leafBitmap(head) != tr.fullBitmap() {
			put(n - 1)
		}
	}
	if tr.leafBitmap(head) != tr.fullBitmap() {
		t.Fatal("the head leaf is not full")
	}
	// The operations run on trees recovered from base, whose inner nodes
	// recovery packs anew: pick the victim in such a tree.
	base.Crash()
	if tr, err = r.open(base); err != nil {
		t.Fatal(err)
	}
	parents := leafParents(tr.root.Load(), nil)
	var victim, prev uint64
	for _, n := range parents[:len(parents)-1] {
		v := n.leaves[n.cnt.Load()-1].Load().off
		if p, _ := listPrev(tr.engine, v); n.cnt.Load() >= 2 && r.handOver(tr.engine, p, v) {
			victim, prev = v, p
			break
		}
	}
	if victim == 0 {
		t.Fatalf("none of %d leaf parents but the last has a last child to hand over its high key", len(parents))
	}
	nums := leafKeyNums(r, tr.engine, victim, live)
	slices.Sort(nums)
	for _, n := range nums[1:] {
		if _, err := tr.Delete(r.key(n)); err != nil {
			t.Fatal(err)
		}
		delete(live, n)
	}
	// Uncrashed, the unlink hands the victim's high key to prev.
	high := base.ReadBytes(victim+tr.sh.offHigh, tr.sh.highSize)
	done := base.Clone()
	if e, err := r.open(done); err != nil {
		t.Fatal(err)
	} else if _, err := e.Delete(r.key(nums[0])); err != nil {
		t.Fatal(err)
	}
	if got := done.ReadBytes(prev+tr.sh.offHigh, tr.sh.highSize); !bytes.Equal(got, high) {
		t.Fatalf("the unlink left prev's high key % x, want the victim's % x", got, high)
	}
	for _, op := range []struct {
		name string
		key  int // the operation's key, which a crash may keep or drop
		run  func(*Index[K, V]) error
		fill []int // keys of the range the operation moves between leaves
	}{
		{"split", 15, func(e *Index[K, V]) error { return e.Insert(r.key(15), r.val(15)) }, []int{12, 17, 33, 35}},
		{"unlink", nums[0], func(e *Index[K, V]) error { _, err := e.Delete(r.key(nums[0])); return err },
			[]int{nums[0] - 3, nums[0] - 1}},
	} {
		t.Run(op.name, func(t *testing.T) {
			images := crashtest.TearsWide(t, base, func(p *scm.Pool) (func() error, error) {
				e, err := r.open(p)
				return func() error { return op.run(e) }, err
			}, func(img *scm.Pool) error {
				e, err := r.open(img)
				if err != nil {
					return fmt.Errorf("recovery: %v", err)
				}
				want := map[int]bool{}
				for n := range live {
					want[n] = n != op.key
				}
				if err := r.checkKeys(e, want); err != nil {
					return err
				}
				if err := e.CheckInvariants(); err != nil {
					return err
				}
				for _, n := range op.fill {
					if err := e.Upsert(r.key(n), r.val(n)); err != nil {
						return err
					}
					want[n] = true
				}
				img.Crash()
				if e, err = r.open(img); err != nil {
					return fmt.Errorf("second recovery: %v", err)
				}
				if err := r.checkKeys(e, want); err != nil {
					return fmt.Errorf("second recovery: %v", err)
				}
				return e.CheckInvariants()
			})
			t.Logf("%d torn images", images)
		})
	}
}
