package core

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"fptree/internal/scm"
)

// RecoveryOptions tunes how Open/COpen/OpenVar/COpenVar rebuild the
// DRAM-resident inner nodes from the persistent leaves (Algorithm 9).
//
// The rebuild walks the persistent leaf list once, reading each leaf's next
// pointer and high key. In a tree with leaf groups (§4.3) every leaf has an
// address the group stack gives, so Workers goroutines first read each group
// leaf's bitmap, next pointer and high key in one access into a DRAM table,
// and the walk follows the list through the table: one dependent SCM read
// per group, where a tree without groups makes one per leaf. The walk hands
// batches of consecutive leaves to Workers scanner goroutines, which read
// each leaf's validity bitmap (unless the table holds it) and, in a tree that
// has published a key block or for a leaf that stores no high key, its key
// cells: max key and leaked key blocks. The scan is read-only and dominated
// by SCM latency. One pass in list order then applies every durable repair
// (reclaiming leaked key blocks, unlinking leaves emptied by an interrupted
// delete) and the inner nodes are built. Every worker count reads the same
// lines and writes the same bytes, so the recovered arena is byte-identical
// whatever Workers is.
type RecoveryOptions struct {
	// Workers is the number of goroutines scanning persistent leaves during
	// recovery. The zero value (or any value below 1) uses
	// runtime.GOMAXPROCS(0).
	Workers int

	// listWalk makes a grouped tree's leaf walk read every next pointer from
	// SCM, as a tree without groups does, so tests can hold the table walk
	// to it.
	listWalk bool
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

// groupTable is the one enumeration of a grouped tree's leaves that
// recovery makes (§4.3): the groups, top of the group stack first, and
// whether the leaf pass kept leaf j of the gi-th group, at index gi*size+j.
// The free vector, the usage counters and the free-leaf sweep take group
// membership from it, so the group list is walked once.
type groupTable struct {
	size     int    // leaves per group
	leafSize uint64 // bytes per leaf
	groups   []uint64
	sorted   []uint64 // the group offsets, ascending
	order    []int    // order[k]: the index in groups of sorted[k]
	live     []bool
	listWalk bool // the leaf walk reads every next pointer in SCM (tests)
}

// groupLeaf is what a worker read of a group leaf: the leaf pass's entry
// for it (count, high key) and its next pointer.
type groupLeaf[K any] struct {
	s    scannedLeaf[K]
	next scm.PPtr
}

// groupLeaves is what readGroups read of every group leaf, groupBatch groups
// to a chunk, so the group walk can hand a chunk to a worker before it knows
// how many groups follow.
type groupLeaves[K any] struct {
	per    int // entries per chunk
	chunks [][]groupLeaf[K]
}

// at is the entry of the leaf at table index i.
func (l groupLeaves[K]) at(i int) *groupLeaf[K] { return &l.chunks[i/l.per][i%l.per] }

// groupBatch is how many groups the group walk hands a worker at a time:
// enough that a worker rarely waits for the walk.
const groupBatch = 16

// readGroups builds the group table. The caller's goroutine walks the group
// stack, one dependent read per group, and hands every groupBatch groups it
// finds to workers-1 goroutines, then reads what is left beside them, so the
// reads overlap the walk on as many goroutines as there are workers. Of every
// leaf of the groups a reader reads, in one access, the span from the bitmap
// to the end of the high key — the bitmap word of line 0 and the next
// pointer and high key of line 1 — and decodes it. The leaf walk then
// follows the list through the table in DRAM.
func (e *engine[K, V]) readGroups(workers int) (*groupTable, groupLeaves[K]) {
	t := &groupTable{size: e.groups.size, leafSize: e.sh.size}
	gl := groupLeaves[K]{per: groupBatch * t.size}
	type job struct {
		groups []uint64       // a chunk's groups
		leaves []groupLeaf[K] // and its entries
	}
	nextOff := e.sh.offNext - e.sh.offBitmap // of the next pointer in a span
	read := func(jb job) {
		var buf [8 + scm.PPtrSize + maxHighSize]byte // bitmap, next, high
		span := buf[:e.sh.offHigh+e.sh.highSize-e.sh.offBitmap]
		for k, group := range jb.groups {
			for j := range t.size {
				g := &jb.leaves[k*t.size+j]
				g.s.leaf = group + scm.LineSize + uint64(j)*t.leafSize
				e.pool.ReadInto(g.s.leaf+e.sh.offBitmap, span)
				g.s.count = bits.OnesCount64(binary.LittleEndian.Uint64(span))
				g.next = scm.PPtr{ArenaID: binary.LittleEndian.Uint64(span[nextOff:]), Offset: binary.LittleEndian.Uint64(span[nextOff+8:])}
				g.s.bound, g.s.high = e.cdc.high(span[nextOff+scm.PPtrSize:])
			}
		}
	}
	jobs := make(chan job, 1024)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				read(jb)
			}
		}()
	}
	// hand queues the chunk of the groups from first on, or reads it here
	// when the queue is full.
	hand := func(first int) {
		gl.chunks = append(gl.chunks, make([]groupLeaf[K], gl.per))
		jb := job{t.groups[first:], gl.chunks[len(gl.chunks)-1]}
		select {
		case jobs <- jb:
		default:
			read(jb)
		}
	}
	var next [scm.PPtrSize]byte
	first := 0 // the first group of the chunk being filled
	for p := e.groups.list.first(); !p.IsNull(); p.Offset = binary.LittleEndian.Uint64(next[8:]) {
		t.groups = append(t.groups, p.Offset)
		e.pool.ReadInto(p.Offset, next[:])
		if len(t.groups)-first == groupBatch {
			hand(first)
			first = len(t.groups)
		}
	}
	if first < len(t.groups) {
		hand(first)
	}
	close(jobs)
	for jb := range jobs {
		read(jb)
	}
	wg.Wait()
	e.Ops.RecoveryGroups.Add(uint64(len(t.groups)))
	e.Ops.RecoveryChainReads.Add(uint64(len(t.groups)))

	t.order = make([]int, len(t.groups))
	for i := range t.order {
		t.order[i] = i
	}
	slices.SortFunc(t.order, func(a, b int) int { return cmp.Compare(t.groups[a], t.groups[b]) })
	t.sorted = make([]uint64, len(t.groups))
	for k, gi := range t.order {
		t.sorted[k] = t.groups[gi]
	}
	t.live = make([]bool, len(t.groups)*t.size)
	return t, gl
}

// leaf is the offset of the leaf at index i.
func (t *groupTable) leaf(i int) uint64 {
	return t.groups[i/t.size] + scm.LineSize + uint64(i%t.size)*t.leafSize
}

// index finds leaf's index, or -1 when leaf is in no group of the table (or
// there is no table).
func (t *groupTable) index(leaf uint64) int {
	if t == nil {
		return -1
	}
	k, j := leafIn(t.sorted, leaf, t.leafSize, t.size)
	if k < 0 {
		return -1
	}
	return t.order[k]*t.size + j
}

// scanBatch is how many consecutive list leaves the walker hands a scanner
// at a time: enough that the channel costs little per leaf.
const scanBatch = 64

// scannedLeaf is one list leaf and what the leaf pass found: its index in
// the group table (-1 for none), its bound, the separator to its right (the
// high key, or the max key when the leaf stores none), the valid-slot count
// (-1 until a worker reads the bitmap) and the leak repairs Algorithm 17
// detected (var codec only), which the repair pass applies. scan marks a
// leaf whose cells must be read: the tree has published a key block, or the
// leaf is not the last and stores no high key.
type scannedLeaf[K any] struct {
	leaf  uint64
	ti    int
	bound K
	high  bool // bound is the leaf's high key
	scan  bool
	count int
	leaks []leakAction
}

// collectLeaves is the leaf pass of Algorithm 9, with each leaf's separator
// taken from its high key instead of from a scan of its keys. The caller's
// goroutine walks the persistent leaf list. A group leaf's entry and next
// pointer come from gl, what readGroups decoded of the group table t, and
// its successor's index from a search of t, so the walk reads no SCM; any
// other leaf's header line that holds its next pointer and high key is read
// in one access, one dependent read per leaf. It hands the batches of
// consecutive leaves that need a read to workers goroutines. A worker reads
// a leaf's bitmap, the one other line the leaf costs, for its count, unless
// the table holds it. Only in a tree whose key-blocks word is set, or for a
// non-last leaf that stores no high key (which a tree of cell-sized keys has
// none of), are a leaf's key cells scanned (codec.scanLeaf), into scratch of
// the worker's own (scanBuf). Then one pass in list order applies every
// durable repair — the leak repairs of each leaf, the unlink of each leaf an
// interrupted delete emptied — and returns the live leaves with their
// bounds, marking them live in t. Every worker count reads the lines one
// sequential walk reads.
//
// An empty leaf leaves the list without touching its predecessor's high key:
// its successor's keys lie above the empty leaf's bound, so above its
// predecessor's, and the successor takes the range.
func (e *engine[K, V]) collectLeaves(workers int, t *groupTable, gl groupLeaves[K]) (leaves []uint64, bounds []K, size int) {
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
						if s.count < 0 {
							s.count = bits.OnesCount64(e.leafBitmap(s.leaf))
						}
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
	busy := false // b holds a leaf the workers must read
	kb := e.keyBlocks.Load()
	table := t != nil && !t.listWalk
	if t != nil {
		leaves, bounds = make([]uint64, 0, len(t.live)), make([]K, 0, len(t.live))
	}
	var line [scm.PPtrSize + maxHighSize]byte // next, high
	n := uint64(0)
	p := e.leafList.first()
	i := t.index(p.Offset) // p's table index
	for ; !p.IsNull(); n++ {
		if table && i >= 0 {
			g := gl.at(i)
			b = append(b, g.s)
			b[len(b)-1].ti = i
			p = g.next
		} else {
			e.Ops.RecoveryChainReads.Add(1)
			nh := line[:e.sh.offHigh+e.sh.highSize-e.sh.offNext]
			e.pool.ReadInto(p.Offset+e.sh.offNext, nh)
			b = append(b, scannedLeaf[K]{leaf: p.Offset, ti: i, count: -1})
			p = scm.PPtr{ArenaID: binary.LittleEndian.Uint64(nh), Offset: binary.LittleEndian.Uint64(nh[8:])}
			s := &b[len(b)-1]
			s.bound, s.high = e.cdc.high(nh[scm.PPtrSize:])
		}
		i = t.index(p.Offset)
		s := &b[len(b)-1]
		s.scan = kb || (!s.high && !p.IsNull())
		busy = busy || s.scan || s.count < 0
		if len(b) == scanBatch {
			batches = append(batches, b)
			if busy {
				work <- b
			}
			b, busy = make([]scannedLeaf[K], 0, scanBatch), false
		}
	}
	e.Ops.RecoveryLeaves.Add(n)
	if len(b) > 0 {
		batches = append(batches, b)
		if busy {
			work <- b
		}
	}
	close(work)
	wg.Wait()

	prev := uint64(0)
	for _, b := range batches {
		for i := range b {
			s := &b[i]
			e.cdc.applyLeaks(s.leaf, s.leaks)
			if s.count == 0 {
				e.unlinkLeaf(s.leaf, prev, false, nil)
				continue
			}
			leaves = append(leaves, s.leaf)
			bounds = append(bounds, s.bound)
			size += s.count
			prev = s.leaf
			if s.ti >= 0 {
				t.live[s.ti] = true
			}
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
