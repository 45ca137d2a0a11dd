package core

import (
	"bytes"
	"fmt"
	"testing"

	"fptree/internal/crashtest"
	"fptree/internal/scm"
)

// inPlaceRig is one tree TestInPlaceUpdateTears updates a key of: keys[0] is
// updated, the others are its neighbours, and every key holds old before.
type inPlaceRig[K, V any] struct {
	create func(*scm.Pool) (*Index[K, V], error)
	open   func(*scm.Pool) (*Index[K, V], error)
	keys   []K
	old    V
	eq     func(a, b V) bool
	leak   func(*Index[K, V]) error // nil: the codec owns nothing to leak
}

// inPlaceOp is one update of keys[0] to now, which the tree must do in its
// slot (inPlace) or move to a free one.
type inPlaceOp[V any] struct {
	name    string
	now     V
	inPlace bool
}

// run fills one leaf with the rig's keys and crashes each op at every persist
// and every word-prefix of the lines dirty there. An in-place op runs on the
// full leaf: it must not split it, must leave the key in its slot, and must
// persist exactly one line once — one crash point, nine images. Any other op
// runs with one neighbour deleted, so it has a free slot, and must move the
// key there. Every image recovers to the old or the new value with the
// invariants intact, nothing leaked and every neighbour untouched, and a
// completed op survives a crash.
func (r inPlaceRig[K, V]) run(t *testing.T, name string, ops []inPlaceOp[V]) {
	t.Helper()
	full := scm.NewPool(256<<10, scm.LatencyConfig{CacheBytes: -1})
	e, err := r.create(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range r.keys {
		if err := e.Insert(k, r.old); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.Memory().Leaves; n != 1 || e.Len() != e.sh.cap {
		t.Fatalf("%s: %d keys in %d leaves, want one full leaf", name, e.Len(), n)
	}
	spare := full.Clone()
	if e, err := r.open(spare); err != nil {
		t.Fatal(err)
	} else if ok, err := e.Delete(r.keys[len(r.keys)-1]); !ok || err != nil {
		t.Fatalf("%s: Delete = %v, %v", name, ok, err)
	}
	key := r.keys[0]
	for _, op := range ops {
		name := name + "/" + op.name
		base, neighbours := spare, r.keys[1:len(r.keys)-1]
		if op.inPlace {
			base, neighbours = full, r.keys[1:]
		}
		p := base.Clone()
		e, err := r.open(p)
		if err != nil {
			t.Fatal(err)
		}
		from := slotOf(e, key)
		if ok, err := e.Update(key, op.now); !ok || err != nil {
			t.Fatalf("%s: Update = %v, %v", name, ok, err)
		}
		if to := slotOf(e, key); (to == from) != op.inPlace {
			t.Errorf("%s: the key went from slot %d to slot %d, in place: %v", name, from, to, op.inPlace)
		}
		if n := e.Memory().Leaves; n != 1 {
			t.Errorf("%s: the update left %d leaves", name, n)
		}
		p.Crash()
		if e, err = r.open(p); err != nil {
			t.Fatal(err)
		}
		if v, ok := e.Find(key); !ok || !r.eq(v, op.now) {
			t.Errorf("%s: after the completed update and a crash, %v = %v, %v", name, key, v, ok)
		}
		images := crashtest.Tears(t, base,
			func(p *scm.Pool) (func() error, error) {
				e, err := r.open(p)
				return func() error { _, err := e.Update(key, op.now); return err }, err
			},
			func(img *scm.Pool) error {
				e, err := r.open(img)
				if err != nil {
					return fmt.Errorf("%s: recovery: %v", name, err)
				}
				if err := e.CheckInvariants(); err != nil {
					return fmt.Errorf("%s: %v", name, err)
				}
				if r.leak != nil {
					if err := r.leak(e); err != nil {
						return fmt.Errorf("%s: %v", name, err)
					}
				}
				for _, k := range neighbours {
					if v, ok := e.Find(k); !ok || !r.eq(v, r.old) {
						return fmt.Errorf("%s: neighbour %v = %v, %v", name, k, v, ok)
					}
				}
				if v, ok := e.Find(key); !ok || (!r.eq(v, r.old) && !r.eq(v, op.now)) {
					return fmt.Errorf("%s: %v = %v, %v: neither the old value nor the new", name, key, v, ok)
				}
				return nil
			})
		if op.inPlace && images != scm.LineSize/8+1 {
			t.Errorf("%s: %d torn images, want %d: one persist of one line", name, images, scm.LineSize/8+1)
		}
	}
}

// TestInPlaceUpdateTears crashes the one-store update — an update whose value
// lies in one aligned word of its slot — on every tree that takes it: the
// fixed FPTree under both controllers and the fixed PTree; var trees, under
// both controllers, with an inline and a pointer key, at an 8-byte value
// field and at a 3-byte one; and kvserver's slot (LeafCap 56, a 122-byte
// field) holding an 8-byte frame (kvserver's 2-byte length and 6 value
// bytes). Beside each in-place update, the var trees run the updates that
// must stay out of place and move the key: one to a value of another length,
// whose length word would change, and one to a 12-byte value of the stored
// length, which spans two words.
func TestInPlaceUpdateTears(t *testing.T) {
	fixedKeys := func(n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i+1) * 0x9E3779B97F4A7C15
		}
		return keys
	}
	for _, ctl := range []struct {
		name   string
		create func(*scm.Pool, Config) (*Tree, error)
		open   func(*scm.Pool, ...RecoveryOptions) (*Tree, error)
		cfg    Config
	}{
		{"fptree/st", Create, Open, Config{LeafCap: 8}},
		{"fptree/occ", CCreate, COpen, Config{LeafCap: 8}},
		{"ptree/st", Create, Open, Config{LeafCap: 8, Variant: VariantPTree}},
	} {
		inPlaceRig[uint64, uint64]{
			create: func(p *scm.Pool) (*Tree, error) { return ctl.create(p, ctl.cfg) },
			open:   func(p *scm.Pool) (*Tree, error) { return ctl.open(p) },
			keys:   fixedKeys(ctl.cfg.LeafCap),
			old:    1,
			eq:     func(a, b uint64) bool { return a == b },
		}.run(t, ctl.name, []inPlaceOp[uint64]{{"word", 2, true}})
	}

	frame := func(v string) []byte { return append([]byte{byte(len(v)), 0}, v...) }
	geoms := []struct {
		name string
		cfg  Config
		old  []byte
		ops  []inPlaceOp[[]byte]
	}{
		{"value8", Config{LeafCap: 8, ValueSize: 8}, []byte("old-val1"),
			[]inPlaceOp[[]byte]{{"word", []byte("new-val2"), true}, {"resized", []byte("new-v3"), false}}},
		{"value3", Config{LeafCap: 8, ValueSize: 3}, []byte("old"),
			[]inPlaceOp[[]byte]{{"word", []byte("new"), true}, {"resized", []byte("nu"), false}}},
		{"value16", Config{LeafCap: 8, ValueSize: 16}, []byte("aaaaaaaaaaaa"),
			[]inPlaceOp[[]byte]{{"two-words", []byte("bbbbbbbbbbbb"), false}, {"resized", []byte("new-v8"), false}}},
		{"kv-frame8", Config{LeafCap: 56, InnerFanout: 64, ValueSize: 122}, frame("aaaaaa"),
			[]inPlaceOp[[]byte]{{"word", frame("bbbbbb"), true}, {"resized", frame("ccccc"), false}}},
	}
	for _, ctl := range varControllers {
		for _, kind := range []struct {
			name string
			key  func(int) []byte
		}{{"inline", edgeKey}, {"pointer", longKey}} {
			for _, g := range geoms {
				// The neighbours alternate representations around the key.
				keys := [][]byte{kind.key(0)}
				for i := 1; i < g.cfg.LeafCap; i++ {
					if i%2 == 0 {
						keys = append(keys, shortKey(i))
					} else {
						keys = append(keys, longKey(i))
					}
				}
				inPlaceRig[[]byte, []byte]{
					create: func(p *scm.Pool) (*VarTree, error) { return ctl.create(p, g.cfg) },
					open:   func(p *scm.Pool) (*VarTree, error) { return ctl.open(p) },
					keys:   keys,
					old:    g.old,
					eq:     bytes.Equal,
					leak:   checkNoLeak,
				}.run(t, fmt.Sprintf("%s/%s/%s", ctl.name, kind.name, g.name), g.ops)
			}
		}
	}
}
