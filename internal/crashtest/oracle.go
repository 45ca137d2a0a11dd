package crashtest

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// Fixed is the adapter every fixed-size-key tree satisfies (structurally
// identical to bench.FixedTree, so the bench instances plug straight in).
type Fixed interface {
	Insert(k, v uint64) error
	Find(k uint64) (uint64, bool)
	Update(k, v uint64) (bool, error)
	Delete(k uint64) (bool, error)
}

// Var is the adapter every variable-size-key tree satisfies (structurally
// identical to bench.VarTree).
type Var interface {
	Insert(k, v []byte) error
	Find(k []byte) ([]byte, bool)
	Update(k, v []byte) (bool, error)
	Delete(k []byte) (bool, error)
}

// FixedScan returns up to n pairs with key >= from in ascending key order.
// Trees expose scans under differing signatures, so callers wrap theirs in a
// closure; nil disables scan checking.
type FixedScan func(from uint64, n int) []FixedKV

// VarScan is the variable-size-key counterpart of FixedScan.
type VarScan func(from []byte, n int) []VarKV

// FixedKV is one fixed-key pair.
type FixedKV struct{ K, V uint64 }

// VarKV is one variable-size-key pair.
type VarKV struct{ K, V []byte }

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

// FixedOp is one fixed-key trace operation.
type FixedOp struct {
	Kind OpKind
	K, V uint64
}

// VarOp is one variable-size-key trace operation.
type VarOp struct {
	Kind OpKind
	K, V []byte
}

// GenFixed builds a reproducible mixed trace of n operations over keys in
// [1, keySpace]; the small key space forces collisions so updates, deletes
// and duplicate inserts actually hit.
func GenFixed(seed int64, n int, keySpace uint64) []FixedOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]FixedOp, n)
	for i := range ops {
		ops[i] = FixedOp{
			Kind: OpKind(rng.Intn(int(opKinds))),
			K:    rng.Uint64()%keySpace + 1,
			V:    rng.Uint64(),
		}
	}
	return ops
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
// kvserver's 2-byte frame) or the whole field, so a slot's successive owners,
// and an update's old and new value, differ in length in both directions.
func VarValue(v []byte) []byte {
	if len(v) <= 8 {
		return v
	}
	return v[:[...]int{0, 3, min(34, len(v)), len(v)}[v[0]%4]]
}

// GenVar builds a reproducible mixed trace over the keys VarKey gives the
// numbers of [1, keySpace] with the values VarValue makes of valLen random
// bytes, valLen being the trees' configured inline value size, so contents
// compare byte-for-byte.
func GenVar(seed int64, n int, keySpace uint64, valLen int) []VarOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]VarOp, n)
	for i := range ops {
		v := make([]byte, valLen)
		rng.Read(v)
		ops[i] = VarOp{
			Kind: OpKind(rng.Intn(int(opKinds))),
			K:    VarKey(rng.Uint64()%keySpace + 1),
			V:    VarValue(v),
		}
	}
	return ops
}

// ReplayFixed applies ops to the tree and the map oracle in lockstep,
// comparing every return value. The oracle map is mutated; errors name the
// diverging op index.
func ReplayFixed(t Fixed, oracle map[uint64]uint64, ops []FixedOp) error {
	for i, op := range ops {
		_, exists := oracle[op.K]
		switch {
		case op.Kind == OpInsert && !exists:
			if err := t.Insert(op.K, op.V); err != nil {
				return fmt.Errorf("op %d: insert(%d): %v", i, op.K, err)
			}
			oracle[op.K] = op.V
		case op.Kind == OpInsert || op.Kind == OpUpdate:
			ok, err := t.Update(op.K, op.V)
			if err != nil {
				return fmt.Errorf("op %d: update(%d): %v", i, op.K, err)
			}
			if ok != exists {
				return fmt.Errorf("op %d: update(%d) = %v, oracle has-key %v", i, op.K, ok, exists)
			}
			if exists {
				oracle[op.K] = op.V
			}
		case op.Kind == OpDelete:
			ok, err := t.Delete(op.K)
			if err != nil {
				return fmt.Errorf("op %d: delete(%d): %v", i, op.K, err)
			}
			if ok != exists {
				return fmt.Errorf("op %d: delete(%d) = %v, oracle has-key %v", i, op.K, ok, exists)
			}
			delete(oracle, op.K)
		case op.Kind == OpFind:
			v, ok := t.Find(op.K)
			want, wantOK := oracle[op.K]
			if ok != wantOK || (ok && v != want) {
				return fmt.Errorf("op %d: find(%d) = %d,%v want %d,%v", i, op.K, v, ok, want, wantOK)
			}
		case op.Kind == OpScan:
			// Scan checking happens in DiffFixed (needs the optional scan
			// closure); a scan op inside a trace is a no-op here.
		}
	}
	return nil
}

// ReplayVar is the variable-size-key ReplayFixed. Oracle keys are the string
// form of the byte keys.
func ReplayVar(t Var, oracle map[string][]byte, ops []VarOp) error {
	for i, op := range ops {
		_, exists := oracle[string(op.K)]
		switch {
		case op.Kind == OpInsert && !exists:
			if err := t.Insert(op.K, op.V); err != nil {
				return fmt.Errorf("op %d: insert(%q): %v", i, op.K, err)
			}
			oracle[string(op.K)] = op.V
		case op.Kind == OpInsert || op.Kind == OpUpdate:
			ok, err := t.Update(op.K, op.V)
			if err != nil {
				return fmt.Errorf("op %d: update(%q): %v", i, op.K, err)
			}
			if ok != exists {
				return fmt.Errorf("op %d: update(%q) = %v, oracle has-key %v", i, op.K, ok, exists)
			}
			if exists {
				oracle[string(op.K)] = op.V
			}
		case op.Kind == OpDelete:
			ok, err := t.Delete(op.K)
			if err != nil {
				return fmt.Errorf("op %d: delete(%q): %v", i, op.K, err)
			}
			if ok != exists {
				return fmt.Errorf("op %d: delete(%q) = %v, oracle has-key %v", i, op.K, ok, exists)
			}
			delete(oracle, string(op.K))
		case op.Kind == OpFind:
			v, ok := t.Find(op.K)
			want, wantOK := oracle[string(op.K)]
			if ok != wantOK || (ok && !bytes.Equal(v, want)) {
				return fmt.Errorf("op %d: find(%q) = %x,%v want %x,%v", i, op.K, v, ok, want, wantOK)
			}
		}
	}
	return nil
}

// DiffFixed compares the tree's full contents with the oracle: every key of
// the probe universe is looked up (catching both losses and resurrections —
// a tree cannot invent keys outside the keys ever traced), and, when scan is
// non-nil, a full ascending scan must reproduce the sorted oracle exactly.
func DiffFixed(t Fixed, oracle map[uint64]uint64, probe []uint64, scan FixedScan) error {
	for _, k := range probe {
		v, ok := t.Find(k)
		want, wantOK := oracle[k]
		if ok != wantOK || (ok && v != want) {
			return fmt.Errorf("diff: key %d = %d,%v want %d,%v", k, v, ok, want, wantOK)
		}
	}
	if scan != nil {
		want := make([]FixedKV, 0, len(oracle))
		for k, v := range oracle {
			want = append(want, FixedKV{k, v})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].K < want[j].K })
		got := scan(0, len(oracle)+1)
		if len(got) != len(want) {
			return fmt.Errorf("diff: scan returned %d pairs, oracle has %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("diff: scan[%d] = (%d,%d) want (%d,%d)", i, got[i].K, got[i].V, want[i].K, want[i].V)
			}
		}
	}
	return nil
}

// DiffVar is the variable-size-key DiffFixed; probe keys are string-form.
func DiffVar(t Var, oracle map[string][]byte, probe []string, scan VarScan) error {
	for _, k := range probe {
		v, ok := t.Find([]byte(k))
		want, wantOK := oracle[k]
		if ok != wantOK || (ok && !bytes.Equal(v, want)) {
			return fmt.Errorf("diff: key %q = %x,%v want %x,%v", k, v, ok, want, wantOK)
		}
	}
	if scan != nil {
		keys := make([]string, 0, len(oracle))
		for k := range oracle {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		got := scan(nil, len(oracle)+1)
		if len(got) != len(keys) {
			return fmt.Errorf("diff: scan returned %d pairs, oracle has %d", len(got), len(keys))
		}
		for i, k := range keys {
			if string(got[i].K) != k || !bytes.Equal(got[i].V, oracle[k]) {
				return fmt.Errorf("diff: scan[%d] = (%q,%x) want (%q,%x)", i, got[i].K, got[i].V, k, oracle[k])
			}
		}
	}
	return nil
}

// probeUniverse collects every key a fixed trace touches, sorted.
func probeUniverse(ops []FixedOp) []uint64 {
	seen := map[uint64]bool{}
	for _, op := range ops {
		seen[op.K] = true
	}
	out := make([]uint64, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// probeUniverseVar collects every key a var trace touches, sorted.
func probeUniverseVar(ops []VarOp) []string {
	seen := map[string]bool{}
	for _, op := range ops {
		seen[string(op.K)] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RunDifferentialFixed replays a generated trace against the tree in batches,
// diffing full contents (probe universe plus optional scan) after every
// batch. Failures print the generating seed and batch.
func RunDifferentialFixed(tb testing.TB, t Fixed, scan FixedScan, seed int64, nops, batch int, keySpace uint64) {
	tb.Helper()
	ops := GenFixed(seed, nops, keySpace)
	probe := probeUniverse(ops)
	oracle := map[uint64]uint64{}
	for at := 0; at < len(ops); at += batch {
		end := min(at+batch, len(ops))
		if err := ReplayFixed(t, oracle, ops[at:end]); err != nil {
			tb.Fatalf("differential(seed=%d) batch @%d: %v", seed, at, err)
		}
		if err := DiffFixed(t, oracle, probe, scan); err != nil {
			tb.Fatalf("differential(seed=%d) after batch @%d: %v", seed, at, err)
		}
	}
}

// RunDifferentialVar is the variable-size-key RunDifferentialFixed.
func RunDifferentialVar(tb testing.TB, t Var, scan VarScan, seed int64, nops, batch int, keySpace uint64, valLen int) {
	tb.Helper()
	ops := GenVar(seed, nops, keySpace, valLen)
	probe := probeUniverseVar(ops)
	oracle := map[string][]byte{}
	for at := 0; at < len(ops); at += batch {
		end := min(at+batch, len(ops))
		if err := ReplayVar(t, oracle, ops[at:end]); err != nil {
			tb.Fatalf("differential(seed=%d) batch @%d: %v", seed, at, err)
		}
		if err := DiffVar(t, oracle, probe, scan); err != nil {
			tb.Fatalf("differential(seed=%d) after batch @%d: %v", seed, at, err)
		}
	}
}
