package core

import (
	"runtime"
	"sync"
)

// RecoveryOptions tunes how Open/COpen/OpenVar/COpenVar rebuild the
// DRAM-resident inner nodes from the persistent leaves (Algorithm 9).
//
// The rebuild walks the persistent leaf list once. The walk hands batches of
// consecutive leaves to Workers scanner goroutines, which read each leaf's
// validity bitmap and max key and, for variable-size keys, detect leaked key
// blocks; the scan is read-only and dominated by SCM latency. One pass in
// list order then applies every durable repair (reclaiming leaked key
// blocks, unlinking leaves emptied by an interrupted delete) and the inner
// nodes are built. Every worker count reads the same lines and writes the
// same bytes, so the recovered arena is byte-identical whatever Workers is.
type RecoveryOptions struct {
	// Workers is the number of goroutines scanning persistent leaves during
	// recovery. The zero value (or any value below 1) uses
	// runtime.GOMAXPROCS(0).
	Workers int
}

func (o RecoveryOptions) workers() int {
	if o.Workers < 1 {
		return runtime.GOMAXPROCS(0)
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

// scanBatch is how many consecutive list leaves the walker hands a scanner
// at a time: enough that the channel costs little per leaf, few enough that
// the header lines the walker read are still cached when the scan reaches
// them.
const scanBatch = 64

// scannedLeaf is one list leaf and what its scan found: the max key, the
// valid-slot count and the leak repairs Algorithm 17 detected (var codec
// only), which the repair pass applies.
type scannedLeaf[K any] struct {
	leaf  uint64
	max   K
	count int
	leaks []leakAction
}

// collectLeaves is the leaf pass of Algorithm 9. The caller's goroutine
// walks the persistent leaf list and hands batches of consecutive leaves to
// workers scanner goroutines, which run the codec's read-only scan on every
// leaf, each into scratch of its own (scanBuf). Then one pass in list order
// applies every durable repair — the leak repairs of each leaf, the unlink of
// each leaf an interrupted delete emptied — and returns the live leaves with
// their max keys. The walker's read of a leaf's next pointer is the header
// line that leaf's scan then hits, so every worker count reads the lines one
// sequential walk reads.
func (e *engine[K, V]) collectLeaves(workers int) (leaves []uint64, maxKeys []K, size int) {
	work := make(chan []scannedLeaf[K], workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sb := &scanBuf{leaf: make([]byte, e.sh.size)}
			for b := range work {
				for i := range b {
					b[i].max, b[i].count, b[i].leaks = e.cdc.scanLeaf(b[i].leaf, sb)
				}
			}
		}()
	}
	var batches [][]scannedLeaf[K]
	b := make([]scannedLeaf[K], 0, scanBatch)
	for p := e.leafList.first(); !p.IsNull(); p = e.leafList.after(p.Offset) {
		e.Ops.RecoveryLeaves.Add(1)
		b = append(b, scannedLeaf[K]{leaf: p.Offset})
		if len(b) == scanBatch {
			batches = append(batches, b)
			work <- b
			b = make([]scannedLeaf[K], 0, scanBatch)
		}
	}
	if len(b) > 0 {
		batches = append(batches, b)
		work <- b
	}
	close(work)
	wg.Wait()

	prev := uint64(0)
	for _, b := range batches {
		for _, s := range b {
			e.cdc.applyLeaks(s.leaf, s.leaks)
			if s.count == 0 {
				e.unlinkLeaf(s.leaf, prev, nil)
				continue
			}
			leaves = append(leaves, s.leaf)
			maxKeys = append(maxKeys, s.max)
			size += s.count
			prev = s.leaf
		}
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
