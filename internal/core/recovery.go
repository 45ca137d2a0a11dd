package core

import (
	"encoding/binary"
	"math/bits"
	"runtime"
	"sync"

	"fptree/internal/scm"
)

// RecoveryOptions tunes how Open/COpen/OpenVar/COpenVar rebuild the
// DRAM-resident inner nodes from the persistent leaves (Algorithm 9).
//
// The rebuild walks the persistent leaf list once, reading each leaf's next
// pointer and high key. The walk hands batches of consecutive leaves to
// Workers scanner goroutines, which read each leaf's validity bitmap and, in
// a tree that has published a key block or for a leaf that stores no high
// key, its key cells: max key and leaked key blocks. The scan is read-only
// and dominated by SCM latency. One pass in list order then applies every
// durable repair (reclaiming leaked key blocks, unlinking leaves emptied by
// an interrupted delete) and the inner nodes are built. Every worker count reads the same lines and writes the
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
// at a time: enough that the channel costs little per leaf.
const scanBatch = 64

// scannedLeaf is one list leaf and what the leaf pass found: its bound, the
// separator to its right (the high key, or the max key when the leaf stores
// none), the valid-slot count and the leak repairs Algorithm 17 detected (var
// codec only), which the repair pass applies. scan marks a leaf whose cells
// must be read: the tree has published a key block, or the leaf is not the
// last and stores no high key.
type scannedLeaf[K any] struct {
	leaf  uint64
	bound K
	high  bool // bound is the leaf's high key
	scan  bool
	count int
	leaks []leakAction
}

// collectLeaves is the leaf pass of Algorithm 9, with each leaf's separator
// taken from its high key instead of from a scan of its keys. The caller's
// goroutine walks the persistent leaf list, reading of each leaf the header
// line that holds its next pointer and high key in one access, and hands
// batches of consecutive leaves to workers goroutines. A worker reads a
// leaf's bitmap, the one other line the leaf costs, for its count. Only in a
// tree whose key-blocks word is set, or for a non-last leaf that stores no
// high key (which a tree of cell-sized keys has none of), are a leaf's key
// cells scanned (codec.scanLeaf), into scratch of the worker's own
// (scanBuf). Then one pass in list order applies
// every durable repair — the leak repairs of each leaf, the unlink of each
// leaf an interrupted delete emptied — and returns the live leaves with their
// bounds. Every worker count reads the lines one sequential walk reads.
//
// An empty leaf leaves the list without touching its predecessor's high key:
// its successor's keys lie above the empty leaf's bound, so above its
// predecessor's, and the successor takes the range.
func (e *engine[K, V]) collectLeaves(workers int) (leaves []uint64, bounds []K, size int) {
	work := make(chan []scannedLeaf[K], workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb *scanBuf
			for b := range work {
				for i := range b {
					s := &b[i]
					if !s.scan {
						s.count = bits.OnesCount64(e.leafBitmap(s.leaf))
						continue
					}
					if sb == nil {
						sb = &scanBuf{leaf: make([]byte, e.sh.size)}
					}
					var maxK K
					maxK, s.count, s.leaks = e.cdc.scanLeaf(s.leaf, sb)
					if !s.high {
						s.bound = maxK
					}
				}
			}
		}()
	}
	var batches [][]scannedLeaf[K]
	b := make([]scannedLeaf[K], 0, scanBatch)
	kb := e.keyBlocks.Load()
	var line [scm.PPtrSize + maxHighSize]byte // next, high
	nh := line[:e.sh.offHigh+e.sh.highSize-e.sh.offNext]
	for p := e.leafList.first(); !p.IsNull(); {
		e.Ops.RecoveryLeaves.Add(1)
		e.pool.ReadInto(p.Offset+e.sh.offNext, nh)
		s := scannedLeaf[K]{leaf: p.Offset}
		p = scm.PPtr{ArenaID: binary.LittleEndian.Uint64(nh), Offset: binary.LittleEndian.Uint64(nh[8:])}
		s.bound, s.high = e.cdc.high(nh[scm.PPtrSize:])
		s.scan = kb || (!s.high && !p.IsNull())
		b = append(b, s)
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
				e.unlinkLeaf(s.leaf, prev, false, nil)
				continue
			}
			leaves = append(leaves, s.leaf)
			bounds = append(bounds, s.bound)
			size += s.count
			prev = s.leaf
		}
	}
	return leaves, bounds, size
}

// buildInnerW bulk-builds the DRAM part from a leaf list and the leaves'
// bounds (the separator right of each leaf but the last), packing nodes to at
// most ~90% so the first inserts do not immediately split every node; prefix
// is the codec's separator prefix. With
// workers > 1 the leaf-parent level is filled in parallel: node boundaries
// depend only on len(leaves), so workers fill disjoint, deterministic
// node-index ranges and the resulting tree has exactly the shape the
// sequential build produces. Upper levels shrink by ~width× per level and
// are built sequentially.
func buildInnerW[K any](leaves []uint64, bounds []K, maxKids, workers int, prefix func(K) uint64) *cInner[K] {
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
				k := bounds[i]
				n.setSep(i-at, &k, prefix(k))
			}
		}
		n.cnt.Store(int32(end - at))
		level[ni] = n
		if end < len(leaves) {
			seps[ni] = bounds[end-1]
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
