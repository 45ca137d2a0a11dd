package crashtest

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// Tree is the adapter every tree of the harness satisfies, over either key
// kind (structurally bench.Tree, so the bench instances plug straight in).
type Tree[K, V any] interface {
	Insert(k K, v V) error
	Find(k K) (V, bool)
	Update(k K, v V) (bool, error)
	Delete(k K) (bool, error)
}

// KV is one pair.
type KV[K, V any] struct {
	K K
	V V
}

// Scan returns up to n pairs with key >= from in ascending key order. Trees
// expose scans under differing signatures, so callers wrap theirs in a
// closure; nil disables scan checking.
type Scan[K, V any] func(from K, n int) []KV[K, V]

// OpKind enumerates trace operations.
type OpKind uint8

// The trace operation kinds. OpInsert on an existing key is canonicalized to
// an update by the replayer (the trees disagree on duplicate-insert
// semantics; upsert is the behaviour they can all express).
const (
	OpInsert OpKind = iota
	OpUpdate
	OpDelete
	OpFind
	OpScan
	opKinds
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpFind:
		return "find"
	case OpScan:
		return "scan"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one trace operation.
type Op[K, V any] struct {
	Kind OpKind
	K    K
	V    V
}

// Keys describes one key representation to the harness. Appendix C's
// variable-size-key FPTree is the algorithm of §4–5 over another key, and its
// checks are the same checks over another key: the trace, replay, diff and
// iterator checks are written once over a Keys, and Fixed and Var are its two
// instances.
//
// The zero key (0, or the empty key) is the least key, and as a window's end
// edge it leaves the window unbounded — the convention of both iterators.
type Keys[K, V any] struct {
	compare func(a, b K) int
	id      func(K) string // a key's identity in the map oracle
	equal   func(a, b V) bool
	format  func(K) string // a key in failure messages
	key     func(n uint64) K
	value   func(n uint64, valLen int) V // value number n in a field valLen bytes wide
	draw    func(rng *rand.Rand, keySpace uint64, valLen int) Op[K, V]
}

// Fixed is the 8-byte-key, 8-byte-value representation.
var Fixed = Keys[uint64, uint64]{
	compare: cmp.Compare[uint64],
	id:      func(k uint64) string { return strconv.FormatUint(k, 10) },
	equal:   func(a, b uint64) bool { return a == b },
	format:  func(k uint64) string { return strconv.FormatUint(k, 10) },
	key:     func(n uint64) uint64 { return n },
	value:   func(n uint64, _ int) uint64 { return n },
	draw: func(rng *rand.Rand, keySpace uint64, _ int) Op[uint64, uint64] {
		return Op[uint64, uint64]{Kind: OpKind(rng.Intn(int(opKinds))), K: rng.Uint64()%keySpace + 1, V: rng.Uint64()}
	},
}

// Var is the byte-string representation: the keys VarKey gives key numbers,
// and values cut by VarValue to mixed lengths in a field wider than 8 bytes.
var Var = Keys[[]byte, []byte]{
	compare: bytes.Compare,
	id:      func(k []byte) string { return string(k) },
	equal:   bytes.Equal,
	format:  func(k []byte) string { return strconv.Quote(string(k)) },
	key:     VarKey,
	value: func(n uint64, valLen int) []byte {
		return VarValue(bytes.Repeat(binary.LittleEndian.AppendUint64(nil, n), (valLen+7)/8)[:valLen])
	},
	draw: func(rng *rand.Rand, keySpace uint64, valLen int) Op[[]byte, []byte] {
		v := make([]byte, valLen)
		rng.Read(v)
		return Op[[]byte, []byte]{Kind: OpKind(rng.Intn(int(opKinds))), K: VarKey(rng.Uint64()%keySpace + 1), V: VarValue(v)}
	},
}

// VarKey renders key number k for the var-key suites. The FPTree stores a
// key of at most 16 bytes in the leaf slot itself and a longer one behind a
// key pointer, with the length as the only discriminator, so the length
// depends on k: the bare decimal (1-3 bytes for the suites' key spaces),
// exactly 16 bytes, 17, and 40. Neighbouring numbers land in one leaf with
// different representations, and a slot freed by one is reused by another —
// delete-long then insert-short, delete-short then insert-long, and the same
// through Update. The decimal prefix is followed by a non-digit, so distinct
// numbers give distinct keys.
func VarKey(k uint64) []byte { return padVarKey(strconv.AppendUint(nil, k, 10), k) }

// padVarKey gives key number k's rendering the length k selects: as it is,
// or padded behind a ':' to 16, 17 or 40 bytes.
func padVarKey(key []byte, k uint64) []byte {
	if want := [...]int{0, 16, 17, 40}[k%4]; want > 0 {
		key = append(key, ':')
		for len(key) < want {
			key = append(key, 'a'+byte(len(key)%26))
		}
	}
	return key
}

// VarValue cuts v, drawn at the width of a tree's value field, to the length
// its first byte selects. At the 8 bytes every tree of the harness can hold it
// is v itself. In a wider field — the FPTree stores each value at its own
// length — it is empty, 3 bytes, 34 (the benchmark's 32-byte value behind
// kvserver's 2-byte frame), 40 or 41 (the longest value a slot wider than a
// line keeps in its head line, and the shortest that reaches into its tail)
// or the whole field, so a slot's successive owners, and an update's old and
// new value, differ in length in both directions and on both sides of the
// head's end.
func VarValue(v []byte) []byte {
	if len(v) <= 8 {
		return v
	}
	return v[:min([...]int{0, 3, 34, 40, 41, len(v)}[v[0]%6], len(v))]
}

// Gen builds a reproducible mixed trace of n operations over key numbers
// [1, keySpace]; the small key space forces collisions so updates, deletes
// and duplicate inserts actually hit. valLen is the tree's value field, so
// contents compare byte-for-byte.
func (ks Keys[K, V]) Gen(seed int64, n int, keySpace uint64, valLen int) []Op[K, V] {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op[K, V], n)
	for i := range ops {
		ops[i] = ks.draw(rng, keySpace, valLen)
	}
	return ops
}

// probe collects every key a trace touches, sorted.
func (ks Keys[K, V]) probe(ops []Op[K, V]) []K {
	seen := map[string]bool{}
	var out []K
	for _, op := range ops {
		if id := ks.id(op.K); !seen[id] {
			seen[id] = true
			out = append(out, op.K)
		}
	}
	slices.SortFunc(out, ks.compare)
	return out
}

// samePairs reports the first difference between two ascending pair lists.
func (ks Keys[K, V]) samePairs(got, want []KV[K, V]) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if ks.compare(got[i].K, want[i].K) != 0 || !ks.equal(got[i].V, want[i].V) {
			return fmt.Errorf("pair %d = (%s,%x) want (%s,%x)", i, ks.format(got[i].K), any(got[i].V), ks.format(want[i].K), any(want[i].V))
		}
	}
	return nil
}

// Oracle is the map model a tree is checked against. Beside the map it keeps
// the pairs sorted by key: put and del insert into and remove from the sorted
// view by binary search, so a check that reads it never sorts.
type Oracle[K, V any] struct {
	ks     Keys[K, V]
	m      map[string]KV[K, V]
	sorted []KV[K, V]
}

// NewOracle returns an empty oracle over ks.
func NewOracle[K, V any](ks Keys[K, V]) *Oracle[K, V] {
	return &Oracle[K, V]{ks: ks, m: map[string]KV[K, V]{}}
}

// get returns k's value in the model.
func (o *Oracle[K, V]) get(k K) (V, bool) {
	kv, ok := o.m[o.ks.id(k)]
	return kv.V, ok
}

// find is k's position in the sorted view and whether it is there.
func (o *Oracle[K, V]) find(k K) (int, bool) {
	return slices.BinarySearchFunc(o.sorted, k, func(kv KV[K, V], k K) int { return o.ks.compare(kv.K, k) })
}

// put sets k to v in the model.
func (o *Oracle[K, V]) put(k K, v V) {
	o.m[o.ks.id(k)] = KV[K, V]{k, v}
	if i, ok := o.find(k); ok {
		o.sorted[i].V = v
	} else {
		o.sorted = slices.Insert(o.sorted, i, KV[K, V]{k, v})
	}
}

// del removes k from the model.
func (o *Oracle[K, V]) del(k K) {
	delete(o.m, o.ks.id(k))
	if i, ok := o.find(k); ok {
		o.sorted = slices.Delete(o.sorted, i, i+1)
	}
}

// Sorted returns the model's pairs in ascending key order. The slice is the
// oracle's own and changes with it; callers must not modify it.
func (o *Oracle[K, V]) Sorted() []KV[K, V] { return o.sorted }

// scanWidth is how many pairs an OpScan reads.
const scanWidth = 10

// Replay applies ops to the tree and the model in lockstep, comparing every
// return value; an OpScan compares scan's first scanWidth pairs from the op's
// key, when scan is non-nil. Errors name the diverging op index.
func (o *Oracle[K, V]) Replay(t Tree[K, V], scan Scan[K, V], ops []Op[K, V]) error {
	f := o.ks.format
	for i, op := range ops {
		want, exists := o.get(op.K)
		switch {
		case op.Kind == OpInsert && !exists:
			if err := t.Insert(op.K, op.V); err != nil {
				return fmt.Errorf("op %d: insert(%s): %v", i, f(op.K), err)
			}
			o.put(op.K, op.V)
		case op.Kind == OpInsert || op.Kind == OpUpdate:
			ok, err := t.Update(op.K, op.V)
			if err != nil {
				return fmt.Errorf("op %d: update(%s): %v", i, f(op.K), err)
			}
			if ok != exists {
				return fmt.Errorf("op %d: update(%s) = %v, oracle has-key %v", i, f(op.K), ok, exists)
			}
			if exists {
				o.put(op.K, op.V)
			}
		case op.Kind == OpDelete:
			ok, err := t.Delete(op.K)
			if err != nil {
				return fmt.Errorf("op %d: delete(%s): %v", i, f(op.K), err)
			}
			if ok != exists {
				return fmt.Errorf("op %d: delete(%s) = %v, oracle has-key %v", i, f(op.K), ok, exists)
			}
			o.del(op.K)
		case op.Kind == OpFind:
			v, ok := t.Find(op.K)
			if ok != exists || (ok && !o.ks.equal(v, want)) {
				return fmt.Errorf("op %d: find(%s) = %x,%v want %x,%v", i, f(op.K), any(v), ok, any(want), exists)
			}
		case op.Kind == OpScan && scan != nil:
			all := o.Sorted()
			from, _ := slices.BinarySearchFunc(all, op.K, func(kv KV[K, V], k K) int { return o.ks.compare(kv.K, k) })
			if err := o.ks.samePairs(scan(op.K, scanWidth), all[from:min(from+scanWidth, len(all))]); err != nil {
				return fmt.Errorf("op %d: scan(%s): %v", i, f(op.K), err)
			}
		}
	}
	return nil
}

// Diff compares the tree's full contents with the model: every key of the
// probe universe is looked up (catching both losses and resurrections — a
// tree cannot invent keys outside the keys ever traced), and, when scan is
// non-nil, a full ascending scan must reproduce the sorted model exactly.
func (o *Oracle[K, V]) Diff(t Tree[K, V], probe []K, scan Scan[K, V]) error {
	for _, k := range probe {
		v, ok := t.Find(k)
		want, wantOK := o.get(k)
		if ok != wantOK || (ok && !o.ks.equal(v, want)) {
			return fmt.Errorf("diff: key %s = %x,%v want %x,%v", o.ks.format(k), any(v), ok, any(want), wantOK)
		}
	}
	if scan != nil {
		var least K
		if err := o.ks.samePairs(scan(least, len(o.m)+1), o.Sorted()); err != nil {
			return fmt.Errorf("diff: scan: %v", err)
		}
	}
	return nil
}

// RunDifferential replays a generated trace against the tree in batches,
// diffing full contents (probe universe plus optional scan) after every
// batch. valLen is the tree's value field. Failures print the generating
// seed and batch.
func RunDifferential[K, V any](tb testing.TB, ks Keys[K, V], t Tree[K, V], scan Scan[K, V], seed int64, nops, batch int, keySpace uint64, valLen int) {
	tb.Helper()
	ops := ks.Gen(seed, nops, keySpace, valLen)
	probe := ks.probe(ops)
	o := NewOracle(ks)
	for at := 0; at < len(ops); at += batch {
		end := min(at+batch, len(ops))
		if err := o.Replay(t, scan, ops[at:end]); err != nil {
			tb.Fatalf("differential(seed=%d) batch @%d: %v", seed, at, err)
		}
		if err := o.Diff(t, probe, scan); err != nil {
			tb.Fatalf("differential(seed=%d) after batch @%d: %v", seed, at, err)
		}
	}
}
