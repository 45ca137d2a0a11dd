package scm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Pool is one emulated SCM arena: a contiguous byte-addressable region with
// cache/durable split, dirty-line tracking, persistence primitives and a
// crash-safe allocator (alloc.go).
//
// Concurrency contract: like real memory, the pool does not serialize data
// accesses — callers must ensure that two goroutines never touch the same
// 8-byte word concurrently unless both only read, and that a line is not
// written while another goroutine persists it (a write-back copies the whole
// line); the trees guarantee both with leaf locks and line-aligned log
// records. The same holds for the pointer cells passed to Alloc and Free,
// which run concurrently on different allocator stripes and write and
// persist the caller's cell. Dirty-line bookkeeping, the cache simulator, the
// allocator, and all counters are internally synchronized. Crash, Recover and
// Save require quiescence (no in-flight operations).
type Pool struct {
	// Read-mostly fields: fixed at construction (cfg also by SetLatency, the
	// fail-points when a test arms them, crashed when one fires) and read by
	// every access. They are kept apart from the fields accesses write so two
	// goroutines loading from one pool share these lines without bouncing
	// them.
	id      uint64
	cfg     LatencyConfig
	mem     []byte          // cache view: what loads observe
	durable []byte          // durable view: what survives a crash
	dirty   []atomic.Uint64 // bitmap over lines: 1 = cache view ahead of durable
	cache   *cacheSim

	// back is non-nil for file-backed pools (OpenFile): the durable view is
	// then the arena file itself (an mmap on supporting platforms), so it
	// survives a real process death, not just an emulated Crash. wasClean
	// records whether the image carried the clean-shutdown marker when it was
	// reopened.
	back     *fileBacking
	wasClean bool

	// failFlushes < 0 disables injection; otherwise it is decremented on each
	// Persist and the crash fires when it reaches zero. failFences is the
	// same fail-point at fence granularity: it counts explicit Fence calls
	// and the fence every Persist issues after its write-backs.
	failFlushes atomic.Int64
	failFences  atomic.Int64
	crashed     atomic.Bool

	_ [LineSize]byte // written fields start on a line of their own

	alloc allocState // persistent allocator bookkeeping (volatile part)
	stats Stats
}

// ErrInjectedCrash is the panic value raised by an injected crash fail-point.
// Test harnesses recover it, call Crash, and run recovery.
var ErrInjectedCrash = errors.New("scm: injected crash")

// ErrOutOfMemory is returned when an allocation does not fit in the arena.
var ErrOutOfMemory = errors.New("scm: arena out of memory")

var poolIDs atomic.Uint64

// roundCapacity applies the arena sizing rules shared by NewPool and
// OpenFile: at least two header pages, rounded up to whole cache lines.
func roundCapacity(capacity int64) int64 {
	if capacity < headerSize*2 {
		capacity = headerSize * 2
	}
	return (capacity + LineSize - 1) / LineSize * LineSize
}

// newPoolRaw assembles a pool around an existing durable view (a fresh
// zeroed slice, a loaded image, or an arena-file mapping). The cache view
// starts equal to the durable view, as after a cold restart; the caller is
// responsible for the arena ID and header.
func newPoolRaw(durable []byte, cfg LatencyConfig) *Pool {
	lines := int64(len(durable)) / LineSize
	p := &Pool{
		cfg:     cfg,
		mem:     append([]byte(nil), durable...),
		durable: durable,
		dirty:   make([]atomic.Uint64, (lines+63)/64),
		cache:   newCacheSim(cfg.CacheBytes),
	}
	p.failFlushes.Store(-1)
	p.failFences.Store(-1)
	return p
}

// NewPool creates a fresh arena of the given capacity (rounded up to a whole
// number of cache lines) and formats its header and allocator state.
func NewPool(capacity int64, cfg LatencyConfig) *Pool {
	p := newPoolRaw(make([]byte, roundCapacity(capacity)), cfg)
	p.id = poolIDs.Add(1)
	p.formatHeader()
	return p
}

// ID returns the arena identifier used in persistent pointers minted by this
// pool.
func (p *Pool) ID() uint64 { return p.id }

// Size returns the arena capacity in bytes.
func (p *Pool) Size() int64 { return int64(len(p.mem)) }

// Stats exposes the pool's activity counters.
func (p *Pool) Stats() *Stats { return &p.stats }

// Config returns the latency configuration the pool was created with.
func (p *Pool) Config() LatencyConfig { return p.cfg }

// SetLatency swaps the emulated media latencies at runtime (used by the
// benchmark harness to sweep SCM latency on one loaded tree). The cache
// configuration cannot change.
func (p *Pool) SetLatency(mode LatencyMode, read, write time.Duration) {
	p.cfg.Mode = mode
	p.cfg.ReadLatency = read
	p.cfg.WriteLatency = write
}

// --- loads and stores ---------------------------------------------------

// statKey selects the counter stripe for an access to line l: the index of
// the 4 KiB region holding it (the unit of one dirty-bitmap word). A
// goroutine's consecutive accesses mostly stay inside one region — a leaf, a
// key block — so the counter line it adds to stays in its core's cache.
// Keyed by the line itself, every change of line fetched a counter line the
// other core had written last, which cost more than the access.
func statKey(l uint64) uint64 { return l / 64 }

func (p *Pool) onAccess(off, size uint64, write bool) {
	if p.crashed.Load() {
		// The machine is "powered off": after an injected crash nothing may
		// execute until Crash()+recovery run. Propagating the panic stops
		// every worker, as a real power failure would.
		panic(ErrInjectedCrash)
	}
	first := off / LineSize
	last := (off + size - 1) / LineSize
	key := statKey(first)
	if write {
		p.stats.Writes.Add(key, 1)
	} else {
		p.stats.Reads.Add(key, 1)
	}
	var hits, misses uint64
	for l := first; l <= last; l++ {
		if p.cache.touch(l * LineSize) {
			misses++
		} else {
			hits++
		}
		if write {
			p.dirty[l/64].Or(1 << (l % 64))
		}
	}
	if hits != 0 {
		p.stats.ReadHits.Add(key, hits)
	}
	if misses != 0 {
		p.stats.ReadMisses.Add(key, misses)
		p.charge(misses, p.cfg.ReadLatency)
	}
}

// ReadU64 loads a little-endian 8-byte word. Aligned 8-byte loads are the
// p-atomic unit of the emulated medium.
func (p *Pool) ReadU64(off uint64) uint64 {
	p.onAccess(off, 8, false)
	return binary.LittleEndian.Uint64(p.mem[off:])
}

// WriteU64 stores a little-endian 8-byte word (p-atomic when aligned).
func (p *Pool) WriteU64(off, v uint64) {
	p.onAccess(off, 8, true)
	binary.LittleEndian.PutUint64(p.mem[off:], v)
}

// WriteU8 stores one byte.
func (p *Pool) WriteU8(off uint64, v uint8) {
	p.onAccess(off, 1, true)
	p.mem[off] = v
}

// ReadBytes copies size bytes starting at off into a fresh slice.
func (p *Pool) ReadBytes(off, size uint64) []byte {
	if size == 0 {
		return nil
	}
	p.onAccess(off, size, false)
	out := make([]byte, size)
	copy(out, p.mem[off:off+size])
	return out
}

// ReadInto copies len(dst) bytes starting at off into dst without allocating.
func (p *Pool) ReadInto(off uint64, dst []byte) {
	if len(dst) == 0 {
		return
	}
	p.onAccess(off, uint64(len(dst)), false)
	copy(dst, p.mem[off:off+uint64(len(dst))])
}

// WriteBytes stores b at off.
func (p *Pool) WriteBytes(off uint64, b []byte) {
	if len(b) == 0 {
		return
	}
	p.onAccess(off, uint64(len(b)), true)
	copy(p.mem[off:], b)
}

// EqualBytes reports whether the size bytes at off equal b, without copying.
func (p *Pool) EqualBytes(off uint64, b []byte) bool {
	p.onAccess(off, uint64(len(b)), false)
	return string(p.mem[off:off+uint64(len(b))]) == string(b)
}

// ReadPPtr loads a persistent pointer.
func (p *Pool) ReadPPtr(off uint64) PPtr {
	return PPtr{ArenaID: p.ReadU64(off), Offset: p.ReadU64(off + 8)}
}

// WritePPtr stores a persistent pointer as two 8-byte words; the store is not
// p-atomic, and callers that need atomic visibility must use an 8-byte commit
// word, as the tree bitmaps do. The two words share a cache line when off is
// 16-byte aligned. The pool does not check that: the owner of the cell
// guarantees it by layout. The arena root, the trees' metadata blocks and
// micro-logs, and internal/core's leaf key-pointer cells whenever the slot
// size is a multiple of 16 (32-byte slots for 8-byte values; core's layout
// test pins it) are laid out that way. A cell that is only 8-byte aligned may
// straddle two lines, so a crash can keep either word without the other.
func (p *Pool) WritePPtr(off uint64, v PPtr) {
	p.WriteU64(off, v.ArenaID)
	p.WriteU64(off+8, v.Offset)
}

// --- persistence primitives ----------------------------------------------

// Persist makes the byte range [off, off+size) durable: it write-backs every
// covered cache line and issues a fence, the moral equivalent of
// CLFLUSH+MFENCE (or CLWB+SFENCE) in the paper. It is the only way data
// reaches the durable view.
func (p *Pool) Persist(off, size uint64) {
	if size == 0 {
		return
	}
	p.maybeInjectCrash()
	first := off / LineSize
	last := (off + size - 1) / LineSize
	var flushed uint64
	for l := first; l <= last; l++ {
		if p.flushLine(l) {
			flushed++
		}
	}
	// The write-backs are charged before the fence, so a caller that
	// persists under a lock pays the medium inside its critical section.
	p.charge(flushed, p.cfg.WriteLatency)
	p.maybeInjectFenceCrash()
	p.stats.Fences.Add(statKey(first), 1)
	p.stats.BytesFlushed.Add(statKey(first), size)
}

// Fence orders prior flushes without flushing anything itself.
func (p *Pool) Fence() {
	p.maybeInjectFenceCrash()
	p.stats.Fences.Add(0, 1)
}

// flushLine writes line l back if it is dirty and reports whether it did.
func (p *Pool) flushLine(l uint64) bool {
	word := &p.dirty[l/64]
	mask := uint64(1) << (l % 64)
	if word.Load()&mask == 0 {
		return false // clean line: CLFLUSH of a clean line is ~free
	}
	off := l * LineSize
	copy(p.durable[off:off+LineSize], p.mem[off:off+LineSize])
	word.And(^mask)
	p.cache.evict(off)
	p.stats.Flushes.Add(statKey(l), 1)
	return true
}

// charge makes the caller pay n lines of emulated media latency at lat each,
// in one busy-wait of n×lat (LatencySpin); LatencyCount charges nothing.
// Every primitive charges once, for all the lines it missed or flushed, so
// the spin's own overshoot is paid once per primitive, not once per line.
func (p *Pool) charge(n uint64, lat time.Duration) {
	if p.cfg.Mode == LatencySpin && n > 0 {
		spin(time.Duration(n) * lat)
	}
}

// --- crash machinery -------------------------------------------------------

// FailAfterFlushes arms the crash fail-point: the n-th subsequent Persist
// call panics with ErrInjectedCrash *before* flushing (n=1 means the very
// next Persist). Pass a negative n to disarm.
func (p *Pool) FailAfterFlushes(n int64) {
	p.failFlushes.Store(n)
}

// FailAfterFences arms the complementary fail-point at fence granularity: the
// n-th subsequent fence — an explicit Fence call or the fence each Persist
// issues after its write-backs — panics with ErrInjectedCrash. Unlike
// FailAfterFlushes, the lines covered by the interrupted Persist HAVE reached
// the durable view when the crash fires, so enumerating both fail-points
// exposes the states immediately before and immediately after every
// persistence primitive. Pass a negative n to disarm.
func (p *Pool) FailAfterFences(n int64) {
	p.failFences.Store(n)
}

func (p *Pool) maybeInjectCrash() {
	p.inject(&p.failFlushes)
}

func (p *Pool) maybeInjectFenceCrash() {
	p.inject(&p.failFences)
}

func (p *Pool) inject(counter *atomic.Int64) {
	if counter.Load() < 0 {
		return
	}
	if counter.Add(-1) <= 0 {
		counter.Store(-1)
		p.crashed.Store(true)
		panic(ErrInjectedCrash)
	}
}

// PanicIfCrashed propagates an injected crash to callers that spin without
// touching the pool (optimistic retry loops): once the "machine" has failed,
// no code may make progress. It is a no-op in normal operation.
func (p *Pool) PanicIfCrashed() {
	if p.crashed.Load() {
		panic(ErrInjectedCrash)
	}
}

// Crash simulates a power failure: every line that was not flushed reverts to
// its durable content and the simulated CPU cache empties. The caller must
// then run recovery (allocator RecoverAlloc plus data-structure recovery)
// before using the pool again.
func (p *Pool) Crash() {
	p.CrashWords(func(uint64) int { return 0 })
}

// CrashWords is the one crash every other form is expressed through. It
// behaves like Crash but, before reverting a dirty line, commits the line's
// first keep(line) 8-byte words, where line is the line's index (offset /
// LineSize): 0 drops the line whole, LineSize/8 writes it back whole. This
// models the hardware guarantee floor the paper assumes: stores become
// durable in word units, in unspecified order, unless explicitly flushed.
// Dirty lines are visited in address order, once each, so a caller can
// enumerate every torn image a crash may leave: learn the dirty lines from a
// first call on a Clone, then replay one prefix choice per line on further
// clones.
func (p *Pool) CrashWords(keep func(line uint64) int) {
	for w := range p.dirty {
		bits := p.dirty[w].Load()
		if bits == 0 {
			continue
		}
		for b := 0; b < 64; b++ {
			if bits&(1<<b) == 0 {
				continue
			}
			line := uint64(w)*64 + uint64(b)
			off := line * LineSize
			n := uint64(keep(line)) * 8
			copy(p.durable[off:off+n], p.mem[off:off+n])
			copy(p.mem[off:off+LineSize], p.durable[off:off+LineSize])
		}
		p.dirty[w].Store(0)
	}
	p.cache.reset()
	p.crashed.Store(false)
}

// CrashTornSeed is CrashTorn with a self-contained RNG: the same seed applied
// to the same dirty state always yields the same torn image, so a failing
// enumeration reproduces exactly from its logged seed.
func (p *Pool) CrashTornSeed(seed int64) {
	p.CrashTorn(rand.New(rand.NewSource(seed)))
}

// CrashTorn is CrashWords with a random choice per dirty line: with
// probability ½ the line is dropped, otherwise a random proper prefix of its
// words is committed. Recovery code must tolerate any such state. The outcome
// is a pure function of (rng stream, dirty state) — see CrashTornSeed for the
// reproducible-seed variant.
func (p *Pool) CrashTorn(rng *rand.Rand) {
	p.CrashWords(func(uint64) int {
		if rng.Intn(2) != 0 {
			return 0
		}
		return rng.Intn(LineSize / 8)
	})
}

// Clone returns an independent deep copy of the arena: cache and durable
// views, the dirty-line bitmap, and allocator bookkeeping. The simulated CPU
// cache starts cold (as after a restart) and crash-injection fail points are
// disarmed. Like Crash and Save it requires quiescence. Crash tests use it
// to recover the same crash image several ways — e.g. sequentially on the
// original and in parallel on the clone — and compare the results.
func (p *Pool) Clone() *Pool {
	q := &Pool{
		id:      p.id,
		cfg:     p.cfg,
		mem:     append([]byte(nil), p.mem...),
		durable: append([]byte(nil), p.durable...),
		dirty:   make([]atomic.Uint64, len(p.dirty)),
		cache:   newCacheSim(p.cfg.CacheBytes),
	}
	for i := range p.dirty {
		q.dirty[i].Store(p.dirty[i].Load())
	}
	q.alloc.largeFrees.Store(p.alloc.largeFrees.Load())
	q.crashed.Store(p.crashed.Load())
	q.failFlushes.Store(-1)
	q.failFences.Store(-1)
	return q
}

// --- image save/load -------------------------------------------------------

// Save writes the durable view to path, modelling the arena file that an
// SCM-aware filesystem would expose. Only flushed data is written: anything
// still in the cache view is lost, exactly as on a machine restart.
//
// The write is crash-safe: the image goes to a temp file in the target's
// directory, is fsynced, and is renamed over path, so a crash mid-save never
// corrupts an existing image — readers observe either the old bytes or the
// new ones, never a torn mix.
func (p *Pool) Save(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(p.durable); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	// The rename is only durable once the directory entry is; fsync the
	// directory so a power cut after Save returns cannot undo it.
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives power failure.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// validateImage sanity-checks the durable view as an arena image: magic,
// format version, a complete header, the formatted flag, and a bump pointer
// inside the arena. A truncated or torn image file, or one written by a build
// with another header layout, fails here instead of surfacing as corruption
// later. The caller has checked that the image holds at least one line.
func (p *Pool) validateImage(path string) error {
	if got := binary.LittleEndian.Uint64(p.durable[offMagic:]); got != headerMagic {
		return fmt.Errorf("scm: %s: bad magic %#x", path, got)
	}
	if v := binary.LittleEndian.Uint64(p.durable[offVersion:]); v != formatVersion {
		return fmt.Errorf("scm: %s: arena format v%d, this build reads v%d", path, v, formatVersion)
	}
	if len(p.durable) < headerSize {
		return fmt.Errorf("scm: %s: image of %d bytes is shorter than the arena header (truncated image?)", path, len(p.durable))
	}
	if binary.LittleEndian.Uint64(p.durable[offState:]) != 1 {
		return fmt.Errorf("scm: %s: arena header never finished formatting", path)
	}
	bump := binary.LittleEndian.Uint64(p.durable[offBump:])
	if bump < headerSize || bump > uint64(len(p.durable)) {
		return fmt.Errorf("scm: %s: bump pointer %#x outside arena of %d bytes (truncated image?)", path, bump, len(p.durable))
	}
	return nil
}

// Load opens an arena file produced by Save. The cache view starts equal to
// the durable view (a cold restart) and the caller must run recovery. The
// restored arena ID also advances the global pool-ID counter, so pools
// created afterwards can never mint a colliding PPtr.ArenaID.
func Load(path string, cfg LatencyConfig) (*Pool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < LineSize || len(data)%LineSize != 0 {
		return nil, fmt.Errorf("scm: %s: not an arena image (size %d)", path, len(data))
	}
	p := newPoolRaw(data, cfg)
	if err := p.validateImage(path); err != nil {
		return nil, err
	}
	p.loadAllocState()
	return p, nil
}
