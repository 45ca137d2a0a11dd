package core

import (
	"sort"
	"sync"

	"fptree/internal/scm"
)

// RecoveryOptions tunes how Open/COpen/OpenVar/COpenVar rebuild the
// DRAM-resident inner nodes from the persistent leaves (Algorithm 9).
//
// The rebuild has two phases: a scan that visits every persistent leaf
// (reading its validity bitmap, finding its max key and, for variable-size
// keys, detecting leaked key blocks) and a repair-and-build pass that prunes
// crash debris and constructs the inner nodes. The scan is read-only and
// dominated by SCM latency, so it parallelizes across Workers goroutines: the
// leaf-group list is partitioned into contiguous chunks, each worker emits a
// sorted (maxKey, leafPtr) run, and the runs are merged. All durable repairs
// (unlinking empty leaves, reclaiming leaked key blocks) are then applied
// sequentially in leaf-list order — exactly the order sequential recovery
// uses — so recovery produces a byte-identical arena regardless of Workers.
type RecoveryOptions struct {
	// Workers is the number of goroutines scanning persistent leaves during
	// recovery. Values below 2 (including the zero value) select the
	// sequential path. runtime.NumCPU() is a good setting for large trees.
	Workers int
}

func (o RecoveryOptions) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// recoveryOpts collapses a constructor's variadic options; the last value
// wins.
func recoveryOpts(opts []RecoveryOptions) RecoveryOptions {
	if len(opts) == 0 {
		return RecoveryOptions{}
	}
	return opts[len(opts)-1]
}

// runEntry is one element of a per-worker sorted (maxKey, leafPtr) run: a
// live leaf with its max key, valid-slot count, successor pointer and the
// leak repairs its scan detected (var codec only; detection is read-only,
// application is deferred to the sequential repair pass). next is captured
// while the leaf's lines are still cache-resident from the scan so the
// sequential repair walk does not pay the SCM read latency a second time —
// mirroring the sequential path, where the next-pointer read directly follows
// the scan of the same leaf.
type runEntry[K any] struct {
	leaf  uint64
	max   K
	next  scm.PPtr
	count int
	leaks []leakAction
}

// scanLiveLeaves fans the leaf scan out over workers goroutines and returns
// one merged, key-ordered run of all live leaves (validity bitmap != 0).
// Reads only; safe to run concurrently with nothing else (recovery is
// single-client by contract).
func (e *engine[K, V]) scanLiveLeaves(workers int) []runEntry[K] {
	if e.groups.enabled() && !e.m.headGroup().IsNull() {
		return e.scanGroups(workers)
	}
	return e.scanList(workers)
}

// scanGroups partitions the persistent group list into contiguous chunks.
// Group membership gives each worker its leaves without chasing next
// pointers; liveness comes from the durable bitmap (a leaf not reachable
// from the leaf list always has a zero bitmap — bulk load and the split and
// delete micro-logs all link a leaf before committing its bitmap).
func (e *engine[K, V]) scanGroups(workers int) []runEntry[K] {
	var groups []uint64
	for p := e.m.headGroup(); !p.IsNull(); p = e.groups.groupNext(p.Offset) {
		groups = append(groups, p.Offset)
	}
	if len(groups) == 0 {
		return nil
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	runs := make([][]runEntry[K], workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(groups) / workers
		hi := (w + 1) * len(groups) / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var run []runEntry[K]
			scanned := uint64(0)
			for _, g := range groups[lo:hi] {
				for _, leaf := range e.groups.leafOffsets(g) {
					scanned++
					if e.leafBitmap(leaf) == 0 {
						continue
					}
					mk, n, leaks := e.cdc.scanLeaf(leaf)
					run = append(run, runEntry[K]{leaf: leaf, max: mk, next: e.leafNext(leaf), count: n, leaks: leaks})
				}
			}
			sort.Slice(run, func(i, j int) bool { return e.cdc.less(run[i].max, run[j].max) })
			runs[w] = run
			e.Ops.RecoveryLeaves.Add(scanned)
		}(w, lo, hi)
	}
	wg.Wait()
	return mergeRuns(e.cdc.less, runs)
}

// scanList covers trees without leaf groups (the concurrent controllers):
// one cheap serial walk collects the leaf offsets, then workers scan the
// index ranges. List order is key order, so no sort or merge is needed.
func (e *engine[K, V]) scanList(workers int) []runEntry[K] {
	var offs []uint64
	for p := e.m.headLeaf(); !p.IsNull(); p = e.leafNext(p.Offset) {
		offs = append(offs, p.Offset)
	}
	e.Ops.RecoveryLeaves.Add(uint64(len(offs)))
	if len(offs) == 0 {
		return nil
	}
	if workers > len(offs) {
		workers = len(offs)
	}
	entries := make([]runEntry[K], len(offs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(offs) / workers
		hi := (w + 1) * len(offs) / workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				leaf := offs[i]
				if e.leafBitmap(leaf) == 0 {
					continue // left zero; compacted below
				}
				mk, n, leaks := e.cdc.scanLeaf(leaf)
				entries[i] = runEntry[K]{leaf: leaf, max: mk, next: e.leafNext(leaf), count: n, leaks: leaks}
			}
		}(lo, hi)
	}
	wg.Wait()
	live := entries[:0]
	for i := range entries {
		if entries[i].count > 0 {
			live = append(live, entries[i])
		}
	}
	return live
}

// mergeRuns performs a k-way merge of the per-worker sorted runs. Keys are
// unique across leaves (CheckInvariants enforces strict leaf ordering), so
// no tie-breaking is needed.
func mergeRuns[K any](less func(a, b K) bool, runs [][]runEntry[K]) []runEntry[K] {
	total := 0
	nonEmpty := 0
	for _, r := range runs {
		total += len(r)
		if len(r) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty <= 1 {
		for _, r := range runs {
			if len(r) > 0 {
				return r
			}
		}
		return nil
	}
	out := make([]runEntry[K], 0, total)
	idx := make([]int, len(runs))
	for len(out) < total {
		best := -1
		for w := range runs {
			if idx[w] >= len(runs[w]) {
				continue
			}
			if best < 0 || less(runs[w][idx[w]].max, runs[best][idx[best]].max) {
				best = w
			}
		}
		out = append(out, runs[best][idx[best]])
		idx[best]++
	}
	return out
}

// collectLeavesParallel is the parallel counterpart of collectLeaves: the
// scan runs on workers goroutines, then one sequential pass walks the
// persistent leaf list applying every durable repair — leak reclamation on
// live leaves, unlink of leaves emptied by an interrupted delete — in the
// same order the sequential path would, which keeps the recovered arena
// byte-identical across worker counts. The walk also re-derives the
// authoritative leaf order from the list itself, so a (corrupt) live-but-
// unreachable leaf can never be woven into the inner nodes.
func (e *engine[K, V]) collectLeavesParallel(workers int) (leaves []uint64, maxKeys []K, size int) {
	merged := e.scanLiveLeaves(workers)
	byLeaf := make(map[uint64]*runEntry[K], len(merged))
	for i := range merged {
		byLeaf[merged[i].leaf] = &merged[i]
	}
	leaves = make([]uint64, 0, len(merged))
	maxKeys = make([]K, 0, len(merged))
	prev := uint64(0)
	for p := e.m.headLeaf(); !p.IsNull(); {
		leaf := p.Offset
		ent, ok := byLeaf[leaf]
		var next scm.PPtr
		if ok {
			next = ent.next
		} else {
			next = e.leafNext(leaf)
		}
		if ok {
			e.cdc.applyLeaks(leaf, ent.leaks)
			leaves = append(leaves, leaf)
			maxKeys = append(maxKeys, ent.max)
			size += ent.count
			prev = leaf
		} else {
			e.reclaimLeaf(leaf)
			e.unlinkLeaf(leaf, prev, nil)
		}
		p = next
	}
	return leaves, maxKeys, size
}

// buildInnerW bulk-builds the DRAM part from a leaf list and the leaves' max
// keys, packing nodes to at most ~90% so the first inserts do not
// immediately split every node; prefix is the codec's separator prefix. With
// workers > 1 the leaf-parent level is filled in parallel: node boundaries
// depend only on len(leaves), so workers fill disjoint, deterministic
// node-index ranges and the resulting tree has exactly the shape the
// sequential build produces. Upper levels shrink by ~width× per level and
// are built sequentially.
func buildInnerW[K any](leaves []uint64, maxKeys []K, maxKids, workers int, prefix func(K) uint64) *cInner[K] {
	width := maxKids * 9 / 10
	if width < 2 {
		width = 2
	}
	if len(leaves) == 0 {
		return newCInner[K](maxKids, true)
	}
	nNodes := (len(leaves) + width - 1) / width
	level := make([]*cInner[K], nNodes)
	var seps []K
	if nNodes > 1 {
		seps = make([]K, nNodes-1)
	}
	fill := func(ni int) {
		at := ni * width
		end := at + width
		if end > len(leaves) {
			end = len(leaves)
		}
		n := newCInner[K](maxKids, true)
		for i := at; i < end; i++ {
			n.leaves[i-at].Store(&leafRef{off: leaves[i]})
			if i < end-1 {
				k := maxKeys[i]
				n.setSep(i-at, &k, prefix(k))
			}
		}
		n.cnt.Store(int32(end - at))
		level[ni] = n
		if end < len(leaves) {
			seps[ni] = maxKeys[end-1]
		}
	}
	if workers > 1 && nNodes >= 2*workers {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * nNodes / workers
			hi := (w + 1) * nNodes / workers
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for ni := lo; ni < hi; ni++ {
					fill(ni)
				}
			}(lo, hi)
		}
		wg.Wait()
	} else {
		for ni := 0; ni < nNodes; ni++ {
			fill(ni)
		}
	}
	for len(level) > 1 {
		var next []*cInner[K]
		var nextSeps []K
		for at := 0; at < len(level); at += width {
			end := at + width
			if end > len(level) {
				end = len(level)
			}
			n := newCInner[K](maxKids, false)
			for i := at; i < end; i++ {
				n.kids[i-at].Store(level[i])
				if i < end-1 {
					k := seps[i]
					n.setSep(i-at, &k, prefix(k))
				}
			}
			n.cnt.Store(int32(end - at))
			next = append(next, n)
			if end < len(level) {
				nextSeps = append(nextSeps, seps[end-1])
			}
		}
		level, seps = next, nextSeps
	}
	return level[0]
}
