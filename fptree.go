// Package fptree is a from-scratch Go implementation of the Fingerprinting
// Persistent Tree (FPTree) of Oukid et al., SIGMOD 2016 — a hybrid SCM-DRAM
// persistent and concurrent B+-Tree — together with the emulated Storage
// Class Memory substrate it runs on.
//
// The FPTree keeps leaf nodes in SCM (here: an emulated persistent-memory
// arena with crash semantics, cache-line flush primitives and configurable
// media latency) and rebuilds its DRAM-resident inner nodes on recovery.
// One-byte key fingerprints at the head of each leaf reduce the expected
// number of in-leaf key probes to about one, and Selective Concurrency pairs
// optimistic traversals of the transient part (an HTM emulation) with
// fine-grained persistent leaf locks.
//
// Quick start:
//
//	tree, err := fptree.Create(fptree.Options{})
//	if err != nil { ... }
//	tree.Insert(42, 4200)
//	v, ok := tree.Find(42)
//
// Durability: Save writes the durable image to a file, Load reopens it and
// runs recovery. The emulator's crash testing hooks (Pool().FailAfterFlushes,
// Pool().Crash) let applications exercise their own recovery paths.
package fptree

import (
	"time"

	"fptree/internal/core"
	"fptree/internal/scm"
)

// Options configures a tree and its backing SCM arena.
type Options struct {
	// PoolSize is the arena capacity in bytes. 0 means 256 MiB.
	PoolSize int64
	// LeafCap is the number of entries per leaf (2..64; default 56, the
	// paper's tuned value — fingerprints plus bitmap fill exactly one cache
	// line).
	LeafCap int
	// InnerFanout is the maximum number of keys per DRAM inner node
	// (default 4096 single-threaded, 128 concurrent, per Table 1).
	InnerFanout int
	// GroupSize enables amortized persistent leaf allocations for the
	// single-threaded trees (default 8; set to -1 to disable). Ignored by
	// the concurrent trees.
	GroupSize int
	// ValueSize is the largest inline value a variable-size-key tree
	// stores, in bytes (default 8). A value comes back from Find, Scan and
	// the iterators at the length it was stored with, and a short value
	// costs only the SCM lines its own bytes reach; a value longer than
	// ValueSize is truncated to it.
	ValueSize int
	// PTree selects the fingerprint-less PTree variant (single-threaded
	// trees only).
	PTree bool
	// Latency configures the emulated SCM medium. The zero value disables
	// latency emulation (counting only).
	Latency LatencyProfile
	// Recovery tunes crash recovery (Load and Recover): Workers > 1 scans
	// the persistent leaves in parallel while rebuilding the DRAM inner
	// nodes. The recovered tree is identical for every worker count.
	Recovery RecoveryOptions
}

// RecoveryOptions tunes how recovery rebuilds the DRAM inner nodes from the
// persistent leaves; see core.RecoveryOptions.
type RecoveryOptions = core.RecoveryOptions

// LatencyProfile describes the emulated SCM medium.
type LatencyProfile struct {
	// Emulate enables busy-wait latency emulation; otherwise misses and
	// flushes are only counted.
	Emulate bool
	// Read is charged per SCM cache miss; Write per cache-line flush.
	Read, Write time.Duration
	// CacheBytes sizes the simulated CPU cache in front of SCM (0 = 4 MiB,
	// -1 = no cache: every access misses).
	CacheBytes int64
}

func (o Options) latencyConfig() scm.LatencyConfig {
	cfg := scm.LatencyConfig{
		ReadLatency:  o.Latency.Read,
		WriteLatency: o.Latency.Write,
		CacheBytes:   o.Latency.CacheBytes,
	}
	if o.Latency.Emulate {
		cfg.Mode = scm.LatencySpin
	}
	return cfg
}

func (o Options) poolSize() int64 {
	if o.PoolSize == 0 {
		return 256 << 20
	}
	return o.PoolSize
}

func (o Options) coreConfig() core.Config {
	cfg := core.Config{
		LeafCap:     o.LeafCap,
		InnerFanout: o.InnerFanout,
		GroupSize:   o.GroupSize,
		ValueSize:   o.ValueSize,
	}
	if o.PTree {
		cfg.Variant = core.VariantPTree
	}
	if cfg.GroupSize == 0 {
		cfg.GroupSize = 8
	}
	if cfg.GroupSize < 0 {
		cfg.GroupSize = 0
	}
	return cfg
}

// KV is one fixed-size key-value pair.
type KV = core.KV

// VarKV is one variable-size key-value pair.
type VarKV = core.VarKV

// Iterator is a resumable range iterator over the fixed-key trees: created
// positioned on the window's first key, advanced with Next, released with
// Close. On the concurrent tree each step revalidates the cached leaf's
// modification version and transparently re-seeks from the last returned key
// on conflict, so iteration never double-emits and never skips a key that is
// present for the whole session — but it is not a snapshot: concurrent
// inserts/deletes ahead of the cursor may or may not be observed.
type Iterator = core.FixedIterator

// VarIterator is the variable-size-key counterpart of Iterator.
type VarIterator = core.VarIterator

// Tree is the single-threaded FPTree over 8-byte keys and values.
type Tree struct {
	t    *core.Tree
	pool *scm.Pool
	rec  RecoveryOptions
}

// Create formats a new single-threaded FPTree in a fresh arena.
func Create(opts Options) (*Tree, error) {
	pool := scm.NewPool(opts.poolSize(), opts.latencyConfig())
	t, err := core.Create(pool, opts.coreConfig())
	if err != nil {
		return nil, err
	}
	return &Tree{t: t, pool: pool, rec: opts.Recovery}, nil
}

// Load opens an arena image written by Save and recovers the tree in it.
func Load(path string, opts Options) (*Tree, error) {
	pool, err := scm.Load(path, opts.latencyConfig())
	if err != nil {
		return nil, err
	}
	t, err := core.Open(pool, opts.Recovery)
	if err != nil {
		return nil, err
	}
	return &Tree{t: t, pool: pool, rec: opts.Recovery}, nil
}

// Recover re-opens the tree after a simulated crash on the same pool.
func (t *Tree) Recover() error {
	nt, err := core.Open(t.pool, t.rec)
	if err != nil {
		return err
	}
	t.t = nt
	return nil
}

// Save writes the durable image of the arena to path.
func (t *Tree) Save(path string) error { return t.pool.Save(path) }

// Pool exposes the backing SCM arena (stats, crash hooks, latency control).
func (t *Tree) Pool() *scm.Pool { return t.pool }

// Insert adds a key-value pair; keys are assumed unique.
func (t *Tree) Insert(key, value uint64) error { return t.t.Insert(key, value) }

// Find returns the value stored under key.
func (t *Tree) Find(key uint64) (uint64, bool) { return t.t.Find(key) }

// Update replaces the value under key, reporting whether it existed.
func (t *Tree) Update(key, value uint64) (bool, error) { return t.t.Update(key, value) }

// Upsert inserts the pair or updates it in place.
func (t *Tree) Upsert(key, value uint64) error { return t.t.Upsert(key, value) }

// Delete removes key, reporting whether it existed.
func (t *Tree) Delete(key uint64) (bool, error) { return t.t.Delete(key) }

// BulkLoad populates an empty tree from sorted pairs far faster than
// repeated inserts; fill is the leaf fill factor (0 = 70%). A crash during
// the load recovers a consistent prefix.
func (t *Tree) BulkLoad(kvs []KV, fill float64) error { return t.t.BulkLoad(kvs, fill) }

// Scan visits pairs with key >= from in ascending order until fn returns
// false.
func (t *Tree) Scan(from uint64, fn func(KV) bool) { t.t.Scan(from, fn) }

// ScanN returns up to n pairs with key >= from (nil when n <= 0).
func (t *Tree) ScanN(from uint64, n int) []KV { return t.t.ScanN(from, n) }

// Iterator returns a resumable ascending iterator over [start, end);
// end == 0 means unbounded.
func (t *Tree) Iterator(start, end uint64) *Iterator { return t.t.Iterator(start, end) }

// ReverseIterator returns a resumable descending iterator over [start, end),
// starting at the greatest key below end (end == 0: the maximum key).
func (t *Tree) ReverseIterator(start, end uint64) *Iterator { return t.t.ReverseIterator(start, end) }

// Len returns the number of live keys.
func (t *Tree) Len() int { return t.t.Len() }

// CheckInvariants validates the tree's structural invariants (testing aid).
func (t *Tree) CheckInvariants() error { return t.t.CheckInvariants() }

// CTree is the concurrent FPTree over 8-byte keys and values (Selective
// Concurrency). All methods are safe for concurrent use.
type CTree struct {
	t    *core.CTree
	pool *scm.Pool
	rec  RecoveryOptions
}

// CreateConcurrent formats a new concurrent FPTree in a fresh arena.
func CreateConcurrent(opts Options) (*CTree, error) {
	if opts.InnerFanout == 0 {
		opts.InnerFanout = 128 // Table 1: FPTreeC
	}
	pool := scm.NewPool(opts.poolSize(), opts.latencyConfig())
	cfg := opts.coreConfig()
	cfg.GroupSize = 0
	t, err := core.CCreate(pool, cfg)
	if err != nil {
		return nil, err
	}
	return &CTree{t: t, pool: pool, rec: opts.Recovery}, nil
}

// LoadConcurrent opens an arena image and recovers the concurrent tree.
func LoadConcurrent(path string, opts Options) (*CTree, error) {
	pool, err := scm.Load(path, opts.latencyConfig())
	if err != nil {
		return nil, err
	}
	t, err := core.COpen(pool, opts.Recovery)
	if err != nil {
		return nil, err
	}
	return &CTree{t: t, pool: pool, rec: opts.Recovery}, nil
}

// Recover re-opens the tree after a simulated crash on the same pool.
func (t *CTree) Recover() error {
	nt, err := core.COpen(t.pool, t.rec)
	if err != nil {
		return err
	}
	t.t = nt
	return nil
}

// Save writes the durable image of the arena to path.
func (t *CTree) Save(path string) error { return t.pool.Save(path) }

// Pool exposes the backing SCM arena.
func (t *CTree) Pool() *scm.Pool { return t.pool }

// Insert adds a key-value pair; keys are assumed unique.
func (t *CTree) Insert(key, value uint64) error { return t.t.Insert(key, value) }

// Find returns the value stored under key.
func (t *CTree) Find(key uint64) (uint64, bool) { return t.t.Find(key) }

// Update replaces the value under key, reporting whether it existed.
func (t *CTree) Update(key, value uint64) (bool, error) { return t.t.Update(key, value) }

// Upsert inserts the pair or updates it in place.
func (t *CTree) Upsert(key, value uint64) error { return t.t.Upsert(key, value) }

// Delete removes key, reporting whether it existed.
func (t *CTree) Delete(key uint64) (bool, error) { return t.t.Delete(key) }

// Scan visits pairs with key >= from in ascending order until fn returns
// false.
func (t *CTree) Scan(from uint64, fn func(KV) bool) { t.t.Scan(from, fn) }

// ScanN returns up to n pairs with key >= from (nil when n <= 0).
func (t *CTree) ScanN(from uint64, n int) []KV { return t.t.ScanN(from, n) }

// Iterator returns a resumable ascending iterator over [start, end);
// end == 0 means unbounded. Safe to advance while other goroutines mutate
// the tree.
func (t *CTree) Iterator(start, end uint64) *Iterator { return t.t.Iterator(start, end) }

// ReverseIterator returns a resumable descending iterator over [start, end),
// starting at the greatest key below end (end == 0: the maximum key).
func (t *CTree) ReverseIterator(start, end uint64) *Iterator {
	return t.t.ReverseIterator(start, end)
}

// Len returns the number of live keys.
func (t *CTree) Len() int { return t.t.Len() }

// VarTree is the single-threaded FPTree over variable-size (byte-string)
// keys (Appendix C).
type VarTree struct {
	t    *core.VarTree
	pool *scm.Pool
	rec  RecoveryOptions
}

// CreateVar formats a new single-threaded variable-size-key FPTree.
func CreateVar(opts Options) (*VarTree, error) {
	pool := scm.NewPool(opts.poolSize(), opts.latencyConfig())
	t, err := core.CreateVar(pool, opts.coreConfig())
	if err != nil {
		return nil, err
	}
	return &VarTree{t: t, pool: pool, rec: opts.Recovery}, nil
}

// LoadVar opens an arena image and recovers the variable-size-key tree.
func LoadVar(path string, opts Options) (*VarTree, error) {
	pool, err := scm.Load(path, opts.latencyConfig())
	if err != nil {
		return nil, err
	}
	t, err := core.OpenVar(pool, opts.Recovery)
	if err != nil {
		return nil, err
	}
	return &VarTree{t: t, pool: pool, rec: opts.Recovery}, nil
}

// Recover re-opens the tree after a simulated crash on the same pool.
func (t *VarTree) Recover() error {
	nt, err := core.OpenVar(t.pool, t.rec)
	if err != nil {
		return err
	}
	t.t = nt
	return nil
}

// Save writes the durable image of the arena to path.
func (t *VarTree) Save(path string) error { return t.pool.Save(path) }

// Pool exposes the backing SCM arena.
func (t *VarTree) Pool() *scm.Pool { return t.pool }

// Insert adds a key-value pair; keys are assumed unique.
func (t *VarTree) Insert(key, value []byte) error { return t.t.Insert(key, value) }

// Find returns a copy of the value stored under key.
func (t *VarTree) Find(key []byte) ([]byte, bool) { return t.t.Find(key) }

// Update replaces the value under key, reporting whether it existed.
func (t *VarTree) Update(key, value []byte) (bool, error) { return t.t.Update(key, value) }

// Upsert inserts the pair or updates it in place.
func (t *VarTree) Upsert(key, value []byte) error { return t.t.Upsert(key, value) }

// Delete removes key, reporting whether it existed.
func (t *VarTree) Delete(key []byte) (bool, error) { return t.t.Delete(key) }

// BulkLoad populates an empty tree from pairs sorted by bytewise key order,
// far faster than repeated inserts; fill is the leaf fill factor (0 = 70%).
// A crash during the load recovers a consistent prefix.
func (t *VarTree) BulkLoad(kvs []VarKV, fill float64) error { return t.t.BulkLoad(kvs, fill) }

// Scan visits pairs with key >= from in ascending order until fn returns
// false.
func (t *VarTree) Scan(from []byte, fn func(VarKV) bool) { t.t.Scan(from, fn) }

// ScanN returns up to n pairs with key >= from (nil when n <= 0).
func (t *VarTree) ScanN(from []byte, n int) []VarKV { return t.t.ScanN(from, n) }

// Iterator returns a resumable ascending iterator over [start, end) in
// bytewise key order; a nil edge means unbounded.
func (t *VarTree) Iterator(start, end []byte) *VarIterator { return t.t.Iterator(start, end) }

// ReverseIterator returns a resumable descending iterator over [start, end),
// starting at the greatest key below end (nil end: the maximum key).
func (t *VarTree) ReverseIterator(start, end []byte) *VarIterator {
	return t.t.ReverseIterator(start, end)
}

// Len returns the number of live keys.
func (t *VarTree) Len() int { return t.t.Len() }

// CVarTree is the concurrent FPTree over variable-size keys.
type CVarTree struct {
	t    *core.CVarTree
	pool *scm.Pool
	rec  RecoveryOptions
}

// CreateConcurrentVar formats a new concurrent variable-size-key FPTree.
func CreateConcurrentVar(opts Options) (*CVarTree, error) {
	if opts.InnerFanout == 0 {
		opts.InnerFanout = 64 // Table 1: FPTreeCVar
	}
	pool := scm.NewPool(opts.poolSize(), opts.latencyConfig())
	cfg := opts.coreConfig()
	cfg.GroupSize = 0
	t, err := core.CCreateVar(pool, cfg)
	if err != nil {
		return nil, err
	}
	return &CVarTree{t: t, pool: pool, rec: opts.Recovery}, nil
}

// LoadConcurrentVar opens an arena image and recovers the tree.
func LoadConcurrentVar(path string, opts Options) (*CVarTree, error) {
	pool, err := scm.Load(path, opts.latencyConfig())
	if err != nil {
		return nil, err
	}
	t, err := core.COpenVar(pool, opts.Recovery)
	if err != nil {
		return nil, err
	}
	return &CVarTree{t: t, pool: pool, rec: opts.Recovery}, nil
}

// Recover re-opens the tree after a simulated crash on the same pool.
func (t *CVarTree) Recover() error {
	nt, err := core.COpenVar(t.pool, t.rec)
	if err != nil {
		return err
	}
	t.t = nt
	return nil
}

// Save writes the durable image of the arena to path.
func (t *CVarTree) Save(path string) error { return t.pool.Save(path) }

// Pool exposes the backing SCM arena.
func (t *CVarTree) Pool() *scm.Pool { return t.pool }

// Insert adds a key-value pair; keys are assumed unique.
func (t *CVarTree) Insert(key, value []byte) error { return t.t.Insert(key, value) }

// Find returns a copy of the value stored under key.
func (t *CVarTree) Find(key []byte) ([]byte, bool) { return t.t.Find(key) }

// Update replaces the value under key, reporting whether it existed.
func (t *CVarTree) Update(key, value []byte) (bool, error) { return t.t.Update(key, value) }

// Upsert inserts the pair or updates it in place.
func (t *CVarTree) Upsert(key, value []byte) error { return t.t.Upsert(key, value) }

// Delete removes key, reporting whether it existed.
func (t *CVarTree) Delete(key []byte) (bool, error) { return t.t.Delete(key) }

// Scan visits pairs with key >= from in ascending order until fn returns
// false.
func (t *CVarTree) Scan(from []byte, fn func(VarKV) bool) { t.t.Scan(from, fn) }

// ScanN returns up to n pairs with key >= from (nil when n <= 0).
func (t *CVarTree) ScanN(from []byte, n int) []VarKV { return t.t.ScanN(from, n) }

// Iterator returns a resumable ascending iterator over [start, end) in
// bytewise key order; a nil edge means unbounded. Safe to advance while
// other goroutines mutate the tree.
func (t *CVarTree) Iterator(start, end []byte) *VarIterator { return t.t.Iterator(start, end) }

// ReverseIterator returns a resumable descending iterator over [start, end),
// starting at the greatest key below end (nil end: the maximum key).
func (t *CVarTree) ReverseIterator(start, end []byte) *VarIterator {
	return t.t.ReverseIterator(start, end)
}

// Len returns the number of live keys.
func (t *CVarTree) Len() int { return t.t.Len() }

// Version is the library version.
const Version = "1.0.0"
