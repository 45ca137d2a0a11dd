package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkSearchMatchesLess probes every node under root with every probe key
// and checks that the prefix search returns the index the plain definition
// gives, sort.Search over the separators with less. It returns the number of
// nodes visited.
func checkSearchMatchesLess[K any](t *testing.T, root *cInner[K], probes []K, prefix func(K) uint64, exact bool, less func(a, b K) bool) int {
	t.Helper()
	nodes := 0
	var walk func(n *cInner[K])
	walk = func(n *cInner[K]) {
		nodes++
		seps := int(n.cnt.Load()) - 1
		for _, k := range probes {
			want := sort.Search(seps, func(j int) bool { return !less(*n.keys[j].Load(), k) })
			if got, ok := n.search(k, prefix(k), exact, less); !ok || got != want {
				t.Fatalf("search(%v) on a node with %d separators = %d (ok=%v), sort.Search over less = %d",
					k, seps, got, ok, want)
			}
		}
		if !n.leafParent {
			for i := 0; i <= seps; i++ {
				walk(n.kids[i].Load())
			}
		}
	}
	walk(root)
	return nodes
}

// adversarialVarKeys draws n keys whose 8-byte prefixes collide often, over
// an alphabet of edge bytes: keys shorter than 8 bytes (a key ties with its
// zero-extensions), keys on two shared 8-byte stems (ties broken at byte 9
// or later), runs of 0xff, and free lengths up to 20. The explicit cases
// come first.
func adversarialVarKeys(rng *rand.Rand, n int) [][]byte {
	keys := [][]byte{
		[]byte("ab"), []byte("ab\x00"), []byte("ab\x00\x00"), []byte("ab\x00\x00\x00\x00\x00\x00"),
		[]byte("ab\x00\x00\x00\x00\x00\x00\x00"), []byte("\x00"), []byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00"),
		[]byte("abcdefgh"), []byte("abcdefgh\x00"), []byte("abcdefghi"), []byte("abcdefghij"), []byte("abcdefgha"),
		bytes.Repeat([]byte{0xff}, 7), bytes.Repeat([]byte{0xff}, 8), bytes.Repeat([]byte{0xff}, 9),
		bytes.Repeat([]byte{0xff}, 24), append(bytes.Repeat([]byte{0xff}, 8), 0),
	}
	alpha := []byte{0x00, 0x01, 'a', 'b', 0x7f, 0x80, 0xfe, 0xff}
	for len(keys) < n {
		var k []byte
		switch rng.Intn(4) {
		case 0:
			k = make([]byte, 1+rng.Intn(7))
		case 1:
			stem := []byte("abcdefgh")
			if rng.Intn(2) == 0 {
				stem = bytes.Repeat([]byte{0xff}, 8)
			}
			k = append(stem, make([]byte, rng.Intn(6))...)
			for i := 8; i < len(k); i++ {
				k[i] = alpha[rng.Intn(len(alpha))]
			}
			keys = append(keys, k)
			continue
		case 2:
			k = append(bytes.Repeat([]byte{0xff}, 1+rng.Intn(12)), make([]byte, rng.Intn(3))...)
			for i := len(k) - 1; i >= 0 && k[i] == 0; i-- {
				k[i] = alpha[rng.Intn(len(alpha))]
			}
			keys = append(keys, k)
			continue
		default:
			k = make([]byte, 1+rng.Intn(20))
		}
		for i := range k {
			k[i] = alpha[rng.Intn(len(alpha))]
		}
		keys = append(keys, k)
	}
	return keys
}

// varProbes is keys plus, for each key, its neighbours in byte order: the
// key with a zero byte appended, the key minus its last byte, and the key
// with its last byte stepped up and down.
func varProbes(keys [][]byte) [][]byte {
	var p [][]byte
	for _, k := range keys {
		p = append(p, k, append(slices.Clone(k), 0))
		last := len(k) - 1
		if last > 0 {
			p = append(p, k[:last])
		}
		if k[last] < 0xff {
			up := slices.Clone(k)
			up[last]++
			p = append(p, up)
		}
		if k[last] > 0 {
			down := slices.Clone(k)
			down[last]--
			p = append(p, down)
		}
	}
	return p
}

func fixedProbes(keys []uint64) []uint64 {
	var p []uint64
	for _, k := range keys {
		p = append(p, k, k+1, k-1) // wrapping at 0 and MaxUint64 is intended
	}
	return p
}

// churnSearch runs random insert/delete rounds on e, each round inserting a
// fresh batch and deleting a random part of what is live, so inner nodes
// split and are pruned; after every round it checks the invariants (which
// include every separator's prefix word) and search against less on every
// node.
func churnSearch[K, V any](t *testing.T, e *engine[K, V], rng *rand.Rand, keys []K, val V, widen func([]K) []K) {
	t.Helper()
	var live []K
	next := 0
	for round := 0; next < len(keys); round++ {
		for end := min(next+len(keys)/4, len(keys)); next < end; next++ {
			if err := e.Insert(keys[next], val); err != nil {
				t.Fatal(err)
			}
			live = append(live, keys[next])
		}
		live = slices.DeleteFunc(live, func(k K) bool {
			if rng.Intn(3) != 0 {
				return false
			}
			if ok, err := e.Delete(k); err != nil || !ok {
				t.Fatalf("Delete(%v) = %v, %v", k, ok, err)
			}
			return true
		})
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkSearchMatchesLess(t, e.root.Load(), widen(keys[:next]), e.cdc.prefix, e.sh.exactPfx, e.cdc.less)
	}
}

// TestInnerSearchMatchesLess checks the prefix search against its
// definition on nodes built every way the trees build them: random inserts
// (splits, including root splits) and deletes (removals, pruning, root
// collapse) on the single-threaded and concurrent engines, whose shifts take
// the bulk and the element-wise path, and bulk builds by buildInnerW with
// one and two workers. Var keys are adversarial for an 8-byte prefix; fixed
// keys include 0 and MaxUint64.
func TestInnerSearchMatchesLess(t *testing.T) {
	cfg := Config{LeafCap: 8, InnerFanout: 4, NumLogs: 8}
	rng := rand.New(rand.NewSource(31))
	vkeys := adversarialVarKeys(rng, 1200)
	slices.SortFunc(vkeys, bytes.Compare)
	vkeys = slices.CompactFunc(vkeys, bytes.Equal)
	fkeys := []uint64{0, math.MaxUint64, 1, math.MaxUint64 - 1, 1 << 63, 1<<63 - 1}
	for len(fkeys) < 1200 {
		if rng.Intn(2) == 0 {
			fkeys = append(fkeys, uint64(rng.Intn(4000)))
		} else {
			fkeys = append(fkeys, rng.Uint64())
		}
	}
	slices.Sort(fkeys)
	fkeys = slices.Compact(fkeys)

	shuffledV := slices.Clone(vkeys)
	rng.Shuffle(len(shuffledV), func(i, j int) { shuffledV[i], shuffledV[j] = shuffledV[j], shuffledV[i] })
	shuffledF := slices.Clone(fkeys)
	rng.Shuffle(len(shuffledF), func(i, j int) { shuffledF[i], shuffledF[j] = shuffledF[j], shuffledF[i] })

	t.Run("var", func(t *testing.T) {
		churnSearch(t, newVarTree(t, cfg).engine, rng, shuffledV, []byte("v"), varProbes)
	})
	t.Run("cvar", func(t *testing.T) {
		churnSearch(t, newCVarTree(t, cfg).engine, rng, shuffledV, []byte("v"), varProbes)
	})
	t.Run("fixed", func(t *testing.T) {
		churnSearch(t, newTree(t, cfg).engine, rng, shuffledF, 1, fixedProbes)
	})
	t.Run("cfixed", func(t *testing.T) {
		churnSearch(t, newCTree(t, cfg).engine, rng, shuffledF, 1, fixedProbes)
	})
	t.Run("buildInnerW", func(t *testing.T) {
		vc, fc := &varCodec{}, &fixedCodec{}
		for _, maxKids := range []int{5, 17} {
			for _, workers := range []int{1, 2} {
				leaves := make([]uint64, max(len(vkeys), len(fkeys)))
				for i := range leaves {
					leaves[i] = uint64(i+1) * 256
				}
				root := buildInnerW(leaves[:len(vkeys)], vkeys, maxKids, workers, vc.prefix)
				nodes := checkSearchMatchesLess(t, root, varProbes(vkeys), vc.prefix, false, vc.less)
				froot := buildInnerW(leaves[:len(fkeys)], fkeys, maxKids, workers, fc.prefix)
				checkSearchMatchesLess(t, froot, fixedProbes(fkeys), fc.prefix, true, fc.less)
				if nodes < 2 {
					t.Fatalf("maxKids %d: built %d nodes, want a multi-level tree", maxKids, nodes)
				}
			}
		}
	})
}

// TestPrefixSearchConcurrentSMO runs optimistic readers against writers that
// split and remove inner nodes, and checks every read against its key's
// history. Each key has one writer, which walks its contiguous key range in
// whole passes (insert all, update all, delete all), so leaves fill and
// split, then empty and are removed, pruning inner nodes on the way; keys
// come in groups of four sharing an 8-byte prefix, so descents take both
// the prefix path and the tie path. A key's state after its s-th operation
// is present (value s) unless s is a multiple of 3; the writer publishes s
// after the operation returns, so a read bracketed by published states b and
// a may return any state in [b, a+1]. Before each pass a writer waits, yielding
// and for at most a few seconds, until the readers have finished a read since
// its previous pass, so reads overlap every pass instead of depending on the
// scheduler to start the readers before the writers are done.
func TestPrefixSearchConcurrentSMO(t *testing.T) {
	const (
		writers = 2
		readers = 2
		perW    = 768
		passes  = 6 // two insert/update/delete cycles
	)
	tr := newCVarTree(t, Config{LeafCap: 8, InnerFanout: 4, NumLogs: 8})
	n := writers * perW
	key := func(i int) []byte {
		k := binary.BigEndian.AppendUint64(nil, uint64(i/4)<<40)
		if i%4 != 0 {
			k = append(k, byte(i%4))
		}
		return k
	}
	val := func(i, s int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(i)<<32|uint64(s)) }
	state := make([]atomic.Uint64, n)

	var stop atomic.Bool
	var reads, found atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan string, readers+writers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				i := rng.Intn(n)
				b := state[i].Load()
				v, ok := tr.Find(key(i))
				a := state[i].Load() + 1
				reads.Add(1)
				if !ok {
					if a-b < 2 && b%3 != 0 && a%3 != 0 { // no absent state in [b, a]
						errc <- "key missing while its writer kept it present"
						return
					}
					continue
				}
				found.Add(1)
				got := binary.BigEndian.Uint64(v)
				if s := got & (1<<32 - 1); got>>32 != uint64(i) || s < b || s > a || s%3 == 0 {
					errc <- "read a value outside its key's history"
					return
				}
			}
		}(int64(r + 1))
	}
	awaitRead := func(since int64) {
		for deadline := time.Now().Add(5 * time.Second); reads.Load() <= since && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(lo, hi int) {
			defer wwg.Done()
			var seen int64 // reads finished when the previous pass ended
			for s := 1; s <= passes; s++ {
				awaitRead(seen)
				for i := lo; i < hi; i++ {
					var err error
					var ok bool
					switch s % 3 {
					case 1:
						err, ok = tr.Insert(key(i), val(i, s)), true
					case 2:
						ok, err = tr.Update(key(i), val(i, s))
					case 0:
						ok, err = tr.Delete(key(i))
					}
					if err != nil || !ok {
						errc <- "a writer's operation failed"
						return
					}
					state[i].Store(uint64(s))
				}
				seen = reads.Load()
			}
		}(w*perW, (w+1)*perW)
	}
	wwg.Wait()
	stop.Store(true)
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatalf("%d keys left after the last delete pass", tr.Len())
	}
	if splits := tr.Ops.LeafSplits.Load(); splits < uint64(n/8) {
		t.Fatalf("%d leaf splits, want at least %d: inner nodes did not grow", splits, n/8)
	}
	if reads.Load() == 0 || found.Load() == 0 {
		t.Fatalf("readers made %d reads, %d found: nothing overlapped the writers", reads.Load(), found.Load())
	}
}
