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

// varControllers runs the tests below on both controllers.
var varControllers = []struct {
	name   string
	create func(*scm.Pool, Config) (*VarTree, error)
	open   func(*scm.Pool, ...RecoveryOptions) (*VarTree, error)
}{{"st", CreateVar, OpenVar}, {"occ", CCreateVar, COpenVar}}

// checkNoLeak is the allocator-side invariant of a var tree without leaf
// groups: every byte carved out of the arena is the metadata block, a linked
// leaf, a key block a valid slot points to, or on a free list. A block that
// recovery leaked is in none of them; one it freed while a slot still owned
// it is in two.
func checkNoLeak(e *VarTree) error {
	c := e.cdc.(*varCodec)
	owned := roundUp(metaSize(e.cfg.NumLogs), scm.LineSize)
	for p := e.leafList.first(); !p.IsNull(); p = e.leafList.after(p.Offset) {
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
// long key is staged into it) it crashes an insert, an update to a value of
// another length — one of the old length would be stored in place, see
// TestInPlaceUpdateTears — and a delete at
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
					if e2, err := ctl.open(base.Clone()); err != nil {
						t.Fatal(err)
					} else if from := slotOf(e2, moved); from < 0 {
						t.Fatalf("%q not found", moved)
					} else if _, err := e2.Update(moved, []byte("newer")); err != nil {
						t.Fatal(err)
					} else if to := slotOf(e2, moved); to == from {
						t.Fatalf("the update of %q stayed in slot %d", moved, from)
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
						run     func(e *VarTree) error
						present [2]bool // the key may be present before / after the op
						val     []byte  // the key's value after the op
					}{
						{"insert", base, fresh, func(e *VarTree) error { return e.Insert(fresh, []byte("new")) }, [2]bool{false, true}, []byte("new")},
						{"update", base, moved, func(e *VarTree) error { _, err := e.Update(moved, []byte("newer")); return err }, [2]bool{true, true}, []byte("newer")},
						{"delete", withFresh, fresh, func(e *VarTree) error { _, err := e.Delete(fresh); return err }, [2]bool{true, false}, nil},
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
										if v, ok := e.Find(k); !ok || !bytes.Equal(v, []byte("old")) {
											return fmt.Errorf("%s, %s: bystander %q = %q, %v", name, when, k, v, ok)
										}
									}
									v, ok := e.Find(op.key)
									before := ok == op.present[0] && (!ok || bytes.Equal(v, []byte("old")))
									after := ok == op.present[1] && (!ok || bytes.Equal(v, op.val))
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
	// 4968 at the time of writing. It was 8.4k while a slot was staged and
	// flushed to the end of its value field: a 3-byte value no longer dirties
	// the second line of a straddling 40-byte slot.
	if images < 4500 {
		t.Errorf("only %d torn images checked — fail-point wiring broken?", images)
	}
	t.Logf("%d torn images", images)
}

// TestTornValueLengthReuse aims crashtest.Tears at the one thing a value's own
// length adds: a slot's value field keeps whatever a longer, earlier value left
// behind the bytes a shorter one writes, and only the length word's vlen — the
// same aligned word as klen — says where the value ends. In kvserver's 152-byte
// slot a 3-byte value is staged over a stale 120-byte one and the reverse, and
// a 40-byte value, the longest that stays in the slot's head line, over a
// 41-byte one, the shortest that reaches into its tail, and the reverse, by an
// insert into the freed slot and by an update that moves a key there, for an
// inline and a pointer key under both controllers. After every persist and
// every combination of word-prefixes of the lines dirty there, recovery leaves
// the key absent, or holding exactly the old value, or exactly the new one:
// never a new length over old bytes, nor new bytes cut or run on by the old
// length. The bystanders' values, of both lengths, are intact, and the slots
// recovery freed take values of the other length afterwards.
func TestTornValueLengthReuse(t *testing.T) {
	cfg := Config{LeafCap: 12, ValueSize: 122, NumLogs: 2}
	long := func(c byte) []byte { return bytes.Repeat([]byte{c}, 120) }
	dirs := []struct {
		name     string
		was, now []byte
	}{
		{"short-over-long", long('A'), []byte("new")},
		{"long-over-short", []byte("old"), long('N')},
		{"head-over-tail", bytes.Repeat([]byte{'A'}, 41), bytes.Repeat([]byte{'N'}, 40)},
		{"tail-over-head", bytes.Repeat([]byte{'A'}, 40), bytes.Repeat([]byte{'N'}, 41)},
	}
	kinds := []struct {
		name string
		key  func(int) []byte
	}{{"inline", edgeKey}, {"pointer", longKey}}
	images := 0
	for _, ctl := range varControllers {
		for _, kind := range kinds {
			for _, dir := range dirs {
				// Slots 0-3 hold bystanders, slot 4 the victim whose delete
				// leaves dir.was behind in the lowest free slot, slot 5 the key
				// the update moves there. Slot 4's head is one line, and its
				// tail starts 32 bytes into a line, so the 80 bytes a 120-byte
				// value keeps there dirty two lines: no persist leaves more
				// than Tears enumerates exhaustively.
				base := scm.NewPool(96<<10, scm.LatencyConfig{CacheBytes: -1})
				e, err := ctl.create(base, cfg)
				if err != nil {
					t.Fatal(err)
				}
				stable := map[string][]byte{
					string(shortKey(0)): []byte("s"), string(longKey(0)): long('l'),
					string(edgeKey(0)): long('e'), string(blobKey(0)): nil,
				}
				for _, k := range [][]byte{shortKey(0), longKey(0), edgeKey(0), blobKey(0)} {
					if err := e.Insert(k, stable[string(k)]); err != nil {
						t.Fatal(err)
					}
				}
				victim, moved, fresh := kind.key(2), kind.key(1), kind.key(3)
				for _, k := range [][]byte{victim, moved} {
					if err := e.Insert(k, dir.was); err != nil {
						t.Fatal(err)
					}
				}
				if ok, err := e.Delete(victim); !ok || err != nil {
					t.Fatalf("Delete(%q) = %v, %v", victim, ok, err)
				}
				ops := []struct {
					name string
					key  []byte
					run  func(e *VarTree) error
					old  []byte // nil: the key is absent before the op
				}{
					{"insert", fresh, func(e *VarTree) error { return e.Insert(fresh, dir.now) }, nil},
					{"update", moved, func(e *VarTree) error { _, err := e.Update(moved, dir.now); return err }, dir.was},
				}
				for _, op := range ops {
					name := fmt.Sprintf("%s/%s/%s/%s", ctl.name, kind.name, dir.name, op.name)
					images += crashtest.Tears(t, base,
						func(p *scm.Pool) (func() error, error) {
							e, err := ctl.open(p)
							return func() error { return op.run(e) }, err
						},
						func(img *scm.Pool) error {
							e, err := ctl.open(img)
							if err != nil {
								return fmt.Errorf("%s: recovery: %v", name, err)
							}
							keep := map[string][]byte{}
							for k, v := range stable {
								keep[k] = v
							}
							if op.name == "insert" {
								keep[string(moved)] = dir.was
							}
							verify := func(when string) error {
								if err := e.CheckInvariants(); err != nil {
									return fmt.Errorf("%s, %s: %v", name, when, err)
								}
								if err := checkNoLeak(e); err != nil {
									return fmt.Errorf("%s, %s: %v", name, when, err)
								}
								for k, want := range keep {
									if v, ok := e.Find([]byte(k)); !ok || !bytes.Equal(v, want) {
										return fmt.Errorf("%s, %s: bystander %q = %q, %v", name, when, k, v, ok)
									}
								}
								v, ok := e.Find(op.key)
								before := ok == (op.old != nil) && bytes.Equal(v, op.old)
								if after := ok && bytes.Equal(v, dir.now); !before && !after {
									return fmt.Errorf("%s, %s: %q = %q, %v: neither the old value nor the new", name, when, op.key, v, ok)
								}
								return nil
							}
							if err := verify("after recovery"); err != nil {
								return err
							}
							// The slots the crashed op left free take values
							// of the length they did not hold last.
							for i, k := range [][]byte{kind.key(7), kind.key(8)} {
								if err := e.Insert(k, dir.was); err != nil {
									return fmt.Errorf("%s: follow-up insert %d: %v", name, i, err)
								}
								keep[string(k)] = dir.was
							}
							return verify("after follow-up inserts")
						})
				}
			}
		}
	}
	// 1728 at the time of writing. It was 6.5k, over the first two directions
	// alone, while the wide slot was one block: a persist of a 120-byte value
	// then dirtied three straddling lines at once, where now the tail's two
	// lines and the head's one are persisted apart.
	if images < 1600 {
		t.Errorf("only %d torn images checked — fail-point wiring broken?", images)
	}
	t.Logf("%d torn images", images)
}

// TestSplitSlotValueLengths round-trips every value length kvserver's split
// slot holds (0 to 122 bytes: a head's 40 and up to 82 more in the tail)
// through each reader of a value — Find, the range reader (ScanN, whose leaf
// read takes the heads by runs and then the tails) and recovery — for inline
// and pointer keys under both controllers. Every key is then updated to the
// length on the other side of the head's end (n bytes to 122 − n), so each
// value is read back over the stale bytes a shorter or longer one left in its
// head and tail, and every pair must come back byte for byte.
func TestSplitSlotValueLengths(t *testing.T) {
	const field = 122
	val := func(n int, c byte) []byte {
		v := make([]byte, n)
		for i := range v {
			v[i] = c + byte(i%23)
		}
		return v
	}
	for _, ctl := range varControllers {
		for _, kind := range []struct {
			name string
			key  func(int) []byte
		}{{"inline", edgeKey}, {"pointer", longKey}} {
			t.Run(ctl.name+"/"+kind.name, func(t *testing.T) {
				pool := scm.NewPool(4<<20, scm.LatencyConfig{})
				tr, err := ctl.create(pool, Config{LeafCap: 56, ValueSize: field})
				if err != nil {
					t.Fatal(err)
				}
				want := map[string][]byte{}
				put := func(n int, v []byte) {
					t.Helper()
					if err := tr.Upsert(kind.key(n), v); err != nil {
						t.Fatal(err)
					}
					want[string(kind.key(n))] = v
				}
				check := func(when string) {
					t.Helper()
					for k, v := range want {
						if got, ok := tr.Find([]byte(k)); !ok || !bytes.Equal(got, v) {
							t.Fatalf("%s: Find(%q) = %d bytes %q, %v, want %d bytes", when, k, len(got), got, ok, len(v))
						}
					}
					pairs := tr.ScanN(nil, len(want)+1)
					if len(pairs) != len(want) {
						t.Fatalf("%s: ScanN returned %d pairs, want %d", when, len(pairs), len(want))
					}
					for _, p := range pairs {
						if v := want[string(p.Key)]; !bytes.Equal(p.Value, v) {
							t.Fatalf("%s: ScanN pair %q = %d bytes %q, want %d bytes", when, p.Key, len(p.Value), p.Value, len(v))
						}
					}
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}
				for n := 0; n <= field; n++ {
					put(n, val(n, 'a'))
				}
				check("after insert")
				for n := 0; n <= field; n++ {
					put(n, val(field-n, 'A'))
				}
				check("after update")
				pool.Crash()
				if tr, err = ctl.open(pool); err != nil {
					t.Fatal(err)
				}
				check("after recovery")
			})
		}
	}
}
