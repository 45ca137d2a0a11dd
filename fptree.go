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
	// (default, per Table 1: 4096 single-threaded, 128 concurrent with
	// fixed-size keys, 64 concurrent with variable-size keys).
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
}

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

// KV is one fixed-size key-value pair; VarKV one variable-size-key pair.
type (
	KV    = core.KV
	VarKV = core.VarKV
)

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

// Index is an FPTree in its own SCM arena. Every tree operation is core's
// (core.Index): Insert, Find, Update, Upsert, Delete, BulkLoad, Scan, ScanN,
// Iterator, ReverseIterator, Len, CheckInvariants, Pool and the rest. The
// handle adds only what needs the arena it owns: Recover and Save.
type Index[K, V any] struct {
	*core.Index[K, V]
	open func(*scm.Pool, ...core.RecoveryOptions) (*core.Index[K, V], error)
}

// Tree is the FPTree over 8-byte keys and values, VarTree the one over
// variable-size (byte-string) keys (Appendix C). CTree and CVarTree are the
// same types: a tree made by CreateConcurrent or CreateConcurrentVar (or
// loaded by their Load forms) runs Selective Concurrency, and all its methods
// are safe for concurrent use.
type (
	Tree     = Index[uint64, uint64]
	CTree    = Index[uint64, uint64]
	VarTree  = Index[[]byte, []byte]
	CVarTree = Index[[]byte, []byte]
)

// Create formats a new single-threaded FPTree in a fresh arena.
func Create(opts Options) (*Tree, error) { return create(opts, core.Create, core.Open) }

// CreateConcurrent formats a new concurrent FPTree in a fresh arena.
func CreateConcurrent(opts Options) (*CTree, error) {
	return create(opts.concurrent(128), core.CCreate, core.COpen) // Table 1: FPTreeC
}

// CreateVar formats a new single-threaded variable-size-key FPTree.
func CreateVar(opts Options) (*VarTree, error) { return create(opts, core.CreateVar, core.OpenVar) }

// CreateConcurrentVar formats a new concurrent variable-size-key FPTree.
func CreateConcurrentVar(opts Options) (*CVarTree, error) {
	return create(opts.concurrent(64), core.CCreateVar, core.COpenVar) // Table 1: FPTreeCVar
}

// Load opens an arena image written by Save and recovers the tree in it.
// Recovery, here and in Recover, scans the persistent leaves on
// runtime.GOMAXPROCS(0) goroutines; the recovered tree does not depend on
// the count.
func Load(path string, opts Options) (*Tree, error) { return load(path, opts, core.Open) }

// LoadConcurrent opens an arena image and recovers the concurrent tree.
func LoadConcurrent(path string, opts Options) (*CTree, error) { return load(path, opts, core.COpen) }

// LoadVar opens an arena image and recovers the variable-size-key tree.
func LoadVar(path string, opts Options) (*VarTree, error) { return load(path, opts, core.OpenVar) }

// LoadConcurrentVar opens an arena image and recovers the tree.
func LoadConcurrentVar(path string, opts Options) (*CVarTree, error) {
	return load(path, opts, core.COpenVar)
}

// concurrent fills in a concurrent tree's defaults: the inner fanout def,
// and no leaf groups.
func (o Options) concurrent(def int) Options {
	if o.InnerFanout == 0 {
		o.InnerFanout = def
	}
	o.GroupSize = -1
	return o
}

func create[K, V any](opts Options, mk func(*scm.Pool, core.Config) (*core.Index[K, V], error),
	open func(*scm.Pool, ...core.RecoveryOptions) (*core.Index[K, V], error)) (*Index[K, V], error) {
	t, err := mk(scm.NewPool(opts.poolSize(), opts.latencyConfig()), opts.coreConfig())
	if err != nil {
		return nil, err
	}
	return &Index[K, V]{t, open}, nil
}

func load[K, V any](path string, opts Options, open func(*scm.Pool, ...core.RecoveryOptions) (*core.Index[K, V], error)) (*Index[K, V], error) {
	pool, err := scm.Load(path, opts.latencyConfig())
	if err != nil {
		return nil, err
	}
	t, err := open(pool)
	if err != nil {
		return nil, err
	}
	return &Index[K, V]{t, open}, nil
}

// Recover re-opens the tree after a simulated crash on the same pool, with
// the tree's own controller.
func (t *Index[K, V]) Recover() error {
	nt, err := t.open(t.Pool())
	if err != nil {
		return err
	}
	t.Index = nt
	return nil
}

// Save writes the durable image of the arena to path.
func (t *Index[K, V]) Save(path string) error { return t.Pool().Save(path) }

// Version is the library version.
const Version = "1.0.0"
