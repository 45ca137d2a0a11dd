package core

import (
	"bytes"
	"fmt"
	"testing"

	"fptree/internal/crashtest"
	"fptree/internal/scm"
)

// Keys on both sides of the inline boundary. klen is all that tells recovery
// a key cell's bytes from a key-block pointer, so the tests below mix them in
// one leaf and make a slot change sides.
func shortKey(i int) []byte { return []byte(fmt.Sprintf("s%02d", i)) }         // 3 bytes: inline
func edgeKey(i int) []byte  { return []byte(fmt.Sprintf("edge-key-%07d", i)) } // 16 bytes: the longest inline key
func longKey(i int) []byte  { return []byte(fmt.Sprintf("long-key-%08d", i)) } // 17 bytes: the shortest pointer key
func blobKey(i int) []byte  { return []byte(fmt.Sprintf("blob-%035d", i)) }    // 40 bytes

// varEngine is what the var facades share; the tests below run on both
// controllers through it.
type varEngine = engine[[]byte, []byte]

var varControllers = []struct {
	name   string
	create func(*scm.Pool, Config) (*varEngine, error)
	open   func(*scm.Pool) (*varEngine, error)
}{
	{"st", func(p *scm.Pool, cfg Config) (*varEngine, error) {
		tr, err := CreateVar(p, cfg)
		if err != nil {
			return nil, err
		}
		return tr.engine, nil
	}, func(p *scm.Pool) (*varEngine, error) {
		tr, err := OpenVar(p)
		if err != nil {
			return nil, err
		}
		return tr.engine, nil
	}},
	{"occ", func(p *scm.Pool, cfg Config) (*varEngine, error) {
		tr, err := CCreateVar(p, cfg)
		if err != nil {
			return nil, err
		}
		return tr.engine, nil
	}, func(p *scm.Pool) (*varEngine, error) {
		tr, err := COpenVar(p)
		if err != nil {
			return nil, err
		}
		return tr.engine, nil
	}},
}

// checkNoLeak is the allocator-side invariant of a var tree without leaf
// groups: every byte carved out of the arena is the metadata block, a linked
// leaf, a key block a valid slot points to, or on a free list. A block that
// recovery leaked is in none of them; one it freed while a slot still owned
// it is in two.
func checkNoLeak(e *varEngine) error {
	c := e.cdc.(*varCodec)
	owned := roundUp(metaSize(e.cfg.NumLogs), scm.LineSize)
	for p := e.m.headLeaf(); !p.IsNull(); p = e.leafNext(p.Offset) {
		owned += roundUp(e.sh.size, scm.LineSize)
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

// TestTornSlotReuseExhaustive is the exhaustive form of
// TestTornAfterUpdateKeepsLiveKey, aimed at the one hazard inline keys add: a
// slot that changes representation when it is reused. For each of the four
// reuse cases (the free slot last held a short or a long key; a short or a
// long key is staged into it) it crashes an insert, an update and a delete at
// every flush step and recovers from every combination of word-prefixes of
// the lines dirty at that step — aligned 32-byte slots, where a slot is one
// line, and 40-byte slots, where cell, klen and value may fall on two. After
// each recovery the invariants hold, every other key of the leaf (short and
// long neighbours) is intact, the interrupted operation happened or did not,
// no block is leaked or freed while owned, and further inserts — which pop
// whatever recovery put on the free lists — damage nothing.
func TestTornSlotReuseExhaustive(t *testing.T) {
	kinds := []struct {
		name   string
		key    func(int) []byte
		inline bool
	}{{"short", shortKey, true}, {"edge", edgeKey, true}, {"long", longKey, false}, {"blob", blobKey, false}}
	for _, k := range kinds {
		if key := k.key(0); len(key) <= inlineKeyMax != k.inline {
			t.Fatalf("%q is %d bytes: on the wrong side of the %d-byte boundary", key, len(key), inlineKeyMax)
		}
	}
	images := 0
	for _, ctl := range varControllers {
		for _, cfg := range []Config{{LeafCap: 12, ValueSize: 8, NumLogs: 2}, {LeafCap: 12, ValueSize: 16, NumLogs: 2}} {
			for _, was := range kinds {
				for _, now := range kinds {
					if (was.name == "edge" || was.name == "blob") && (now.name == "edge" || now.name == "blob") {
						continue // short/long already pair every representation; edge and blob cross the boundary from each side once
					}
					// Slots 0-3 hold neighbours of both representations, slot
					// 4 a victim whose delete leaves the lowest free slot
					// stale in representation `was`, slot 5 the key the
					// update moves there.
					base := scm.NewPool(96<<10, scm.LatencyConfig{CacheBytes: -1})
					e, err := ctl.create(base, cfg)
					if err != nil {
						t.Fatal(err)
					}
					stable := [][]byte{shortKey(0), longKey(0), edgeKey(0), blobKey(0)}
					moved, victim, fresh := now.key(1), was.key(2), now.key(3)
					for _, k := range append(append([][]byte{}, stable...), victim, moved) {
						if err := e.Insert(k, []byte("old")); err != nil {
							t.Fatal(err)
						}
					}
					if ok, err := e.Delete(victim); !ok || err != nil {
						t.Fatalf("Delete(%q) = %v, %v", victim, ok, err)
					}
					withFresh := base.Clone() // for the delete: fresh committed into the reused slot
					if e2, err := ctl.open(withFresh); err != nil {
						t.Fatal(err)
					} else if err := e2.Insert(fresh, []byte("old")); err != nil {
						t.Fatal(err)
					}
					ops := []struct {
						name    string
						base    *scm.Pool
						key     []byte
						run     func(e *varEngine) error
						present [2]bool // the key may be present before / after the op
					}{
						{"insert", base, fresh, func(e *varEngine) error { return e.Insert(fresh, []byte("new")) }, [2]bool{false, true}},
						{"update", base, moved, func(e *varEngine) error { _, err := e.Update(moved, []byte("new")); return err }, [2]bool{true, true}},
						{"delete", withFresh, fresh, func(e *varEngine) error { _, err := e.Delete(fresh); return err }, [2]bool{true, false}},
					}
					for _, op := range ops {
						name := fmt.Sprintf("%s/value%d/%s-over-%s/%s", ctl.name, cfg.ValueSize, now.name, was.name, op.name)
						bystanders := stable
						if op.name != "update" {
							bystanders = append(append([][]byte{}, stable...), moved)
						}
						images += crashtest.Tears(t, op.base,
							func(p *scm.Pool) (func() error, error) {
								e, err := ctl.open(p)
								return func() error { return op.run(e) }, err
							},
							func(img *scm.Pool) error {
								e, err := ctl.open(img)
								if err != nil {
									return fmt.Errorf("%s: recovery: %v", name, err)
								}
								keep := append([][]byte(nil), bystanders...)
								verify := func(when string) error {
									if err := e.CheckInvariants(); err != nil {
										return fmt.Errorf("%s, %s: %v", name, when, err)
									}
									if err := checkNoLeak(e); err != nil {
										return fmt.Errorf("%s, %s: %v", name, when, err)
									}
									for _, k := range keep {
										if v, ok := e.Find(k); !ok || !bytes.HasPrefix(v, []byte("old")) {
											return fmt.Errorf("%s, %s: bystander %q = %q, %v", name, when, k, v, ok)
										}
									}
									v, ok := e.Find(op.key)
									before := ok == op.present[0] && (!ok || bytes.HasPrefix(v, []byte("old")))
									after := ok == op.present[1] && (!ok || bytes.HasPrefix(v, []byte("new")))
									if !before && !after {
										return fmt.Errorf("%s, %s: %q = %q, %v: neither before nor after the %s", name, when, op.key, v, ok, op.name)
									}
									return nil
								}
								if err := verify("after recovery"); err != nil {
									return err
								}
								// Reuse what recovery freed: free slots and
								// free-listed key blocks, in both
								// representations.
								for i, k := range [][]byte{longKey(7), shortKey(7), blobKey(8), edgeKey(8)} {
									if err := e.Insert(k, []byte("old")); err != nil {
										return fmt.Errorf("%s: follow-up insert %d: %v", name, i, err)
									}
									keep = append(keep, k)
								}
								return verify("after follow-up inserts")
							})
					}
				}
			}
		}
	}
	if images < 5000 {
		t.Errorf("only %d torn images checked — fail-point wiring broken?", images)
	}
	t.Logf("%d torn images", images)
}
