package crashtest

// Native fuzz target for the resumable iterators: the input byte stream
// decodes into (op, a, b) triples that interleave tree mutations with
// iterator opens, steps, closes and whole-pool crash/recover cycles on a
// single-threaded FPTree. Every emission is validated against the exact
// sorted-map oracle, so the fuzzer hunts for interleavings where a resume
// skips, duplicates or invents a key. CI smoke-runs it briefly; dig with
// `go test -fuzz FuzzIterOps ./internal/crashtest`.

import (
	"testing"

	"fptree/internal/core"
	"fptree/internal/scm"
)

// iterFuzzOp mirrors the 3-byte decode of decodeFuzz but with iterator
// opcodes: 0/1 insert-or-update, 2 update, 3 delete, 4 open forward,
// 5 open reverse, 6 step, 7 step, 8 close, 9 crash+recover.
const iterFuzzOps = 10

func FuzzIterOps(f *testing.F) {
	// Fill, open forward, step through mutations, crash, reopen reverse.
	seed := make([]byte, 0, 3*40)
	for k := byte(1); k <= 20; k++ {
		seed = append(seed, 0, k, 2*k)
	}
	seed = append(seed, 4, 0, 0)
	for k := byte(0); k < 8; k++ {
		seed = append(seed, 6, 0, 0, 3, 2*k, 0)
	}
	seed = append(seed, 9, 0, 0, 5, 0, 0)
	for k := byte(0); k < 12; k++ {
		seed = append(seed, 7, 0, 0)
	}
	f.Add(seed)
	// Windowed forward session with churn, then a bounded reverse one.
	f.Add([]byte("\x00\x05\x05\x00\x0a\x0a\x00\x0f\x0f\x04\x05\x10\x06\x00\x00\x03\x0a\x00\x06\x00\x00\x08\x00\x00\x05\x02\x14\x07\x00\x00\x09\x00\x00\x07\x00\x00"))
	// Empty-domain and exhausted-iterator stepping.
	f.Add([]byte("\x00\x03\x01\x04\x09\x09\x06\x00\x00\x06\x00\x00\x05\x01\x01\x07\x00\x00\x08\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		pool := scm.NewPool(fuzzPoolBytes, scm.LatencyConfig{CacheBytes: -1})
		tr, err := core.Create(pool, core.Config{Variant: core.VariantFPTree, LeafCap: 8, InnerFanout: 4})
		if err != nil {
			t.Fatal(err)
		}
		o := NewOracle(Fixed)
		var it *core.FixedIterator
		var reverse bool
		var lo, hi uint64
		var cur uint64
		curSet := false
		// checkPos asserts the iterator's position is exactly what the
		// oracle dictates for the current cursor.
		checkPos := func(what string) {
			want, ok := Fixed.nextExpected(o.Sorted(), lo, hi, reverse, cur, curSet)
			if it.Valid() != ok {
				t.Fatalf("%s: Valid=%v, oracle expects %v (want key %d)", what, it.Valid(), ok, want.K)
			}
			if ok && (it.Key() != want.K || it.Value() != want.V) {
				t.Fatalf("%s: at (%d,%d), oracle expects (%d,%d)", what, it.Key(), it.Value(), want.K, want.V)
			}
		}
		steps := 0
		for i := 0; i+2 < len(data) && steps < 400; i += 3 {
			steps++
			op, a, b := data[i]%iterFuzzOps, data[i+1], data[i+2]
			k := uint64(a)%32 + 1
			v := uint64(a)<<8 | uint64(b)
			switch op {
			case 0, 1, 2, 3:
				kind := OpInsert
				if op == 2 {
					kind = OpUpdate
				} else if op == 3 {
					kind = OpDelete
				}
				if err := o.Replay(tr, nil, []Op[uint64, uint64]{{Kind: kind, K: k, V: v}}); err != nil {
					t.Fatal(err)
				}
			case 4, 5:
				if it != nil {
					it.Close()
				}
				reverse = op == 5
				lo = uint64(a) % 40
				hi = uint64(b) % 40 // 0 = unbounded; may invert: empty domain
				if reverse {
					it = tr.ReverseIterator(lo, hi)
				} else {
					it = tr.Iterator(lo, hi)
				}
				cur, curSet = 0, false
				checkPos("open")
			case 6, 7:
				if it == nil {
					continue
				}
				if !it.Valid() {
					if it.Next() {
						t.Fatal("Next on exhausted iterator returned true")
					}
					continue
				}
				cur, curSet = it.Key(), true
				it.Next()
				checkPos("step")
			case 8:
				if it != nil {
					it.Close()
					it = nil
				}
			case 9:
				// Between ops every committed mutation is durable, so the
				// oracle carries across the crash unchanged.
				if it != nil {
					it.Close()
					it = nil
				}
				pool.Crash()
				tr2, err := core.Open(pool)
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				tr = tr2
				if err := tr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if it != nil {
			it.Close()
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		probe := make([]uint64, 0, 40)
		for k := uint64(1); k <= 40; k++ {
			probe = append(probe, k)
		}
		if err := o.Diff(tr, probe, nil); err != nil {
			t.Fatal(err)
		}
	})
}
