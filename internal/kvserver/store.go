package kvserver

import (
	"errors"
	"sync"

	"fptree/internal/core"
	"fptree/internal/nvtree"
	"fptree/internal/obs"
	"fptree/internal/obs/trace"
	"fptree/internal/scm"
)

// Store is the whole contract between the server and a storage engine, as in
// the paper's Section 6.4 experiment where every tree sits behind one
// interface. Every store implements all of it — the transient hash map
// answers the parts that do not apply to it with zero, nil or a no-op — so
// the server, the router and memkv call methods and never probe.
type Store interface {
	Set(key, value []byte) error
	Get(key []byte) ([]byte, bool)
	Delete(key []byte) (bool, error)
	// Name is the engine's display name ("FPTreeC"), reported by `stats`.
	Name() string

	Checker

	// RegisterMetrics exposes the engine's counters on reg. A store that is
	// one shard of a fleet is handed its shard view of the registry.
	RegisterMetrics(reg *obs.Registry)
	// SetTracer hands the engine the tracer that samples its operations;
	// nil switches engine tracing off.
	SetTracer(tr *trace.Tracer)
	// NumShards and Shard are the shard view: the concurrency domains behind
	// the store, each with its own engine, arena and controller. A store
	// that is not a router is a fleet of one whose only shard is itself.
	NumShards() int
	Shard(i int) Store
}

// Checker is the size-and-invariants part of the Store contract, under the
// name post-recovery validation asks for it by.
type Checker interface {
	Len() int
	CheckInvariants() error
}

// MaxValueSize bounds stored values (they are stored inline in the trees'
// value slots behind a 2-byte length prefix).
const MaxValueSize = 120

const slotSize = MaxValueSize + 2

// ErrValueTooLarge is returned by Store.Set when the value does not fit in
// the trees' inline value slots.
var ErrValueTooLarge = errors.New("kvserver: value exceeds MaxValueSize")

// framePool recycles the buffers Set frames values in: the engine copies the
// frame into its slot and keeps nothing of it, so an overwriting SET
// allocates nothing.
var framePool = sync.Pool{New: func() any { return new([slotSize]byte) }}

// decodeVal strips the frame. The FPTree engines return a frame at the
// length it was stored with; the NV-Tree pads it to the slot, so the prefix
// stays the authority on the value's length for every engine.
func decodeVal(buf []byte) []byte {
	if len(buf) < 2 {
		return nil
	}
	n := int(buf[0]) | int(buf[1])<<8
	if n > len(buf)-2 {
		n = len(buf) - 2
	}
	return buf[2 : 2+n]
}

// --- the tree adapter ---------------------------------------------------------

// tree is what the adapter needs of an engine: the var-key operations plus
// the observability hooks core.Index promotes.
type tree interface {
	Upsert(k, v []byte) error
	Find(k []byte) ([]byte, bool)
	Delete(k []byte) (bool, error)
	Len() int
	CheckInvariants() error
	RegisterMetrics(*obs.Registry)
	SetTracer(*trace.Tracer)
}

// nvTree gives the NV-Tree, which has no counters or tracer, the no-op half
// of tree.
type nvTree struct{ *nvtree.CVarTree }

func (nvTree) RegisterMetrics(*obs.Registry) {}
func (nvTree) SetTracer(*trace.Tracer)       {}

// treeStore is the one adapter between the Store contract and a persistent
// tree: it frames values for the tree's value slot and, for the
// single-threaded engines, serialises every call behind a global lock (the
// paper's non-concurrent configuration).
type treeStore struct {
	name string
	t    tree
	mu   *sync.Mutex // nil when the engine synchronises itself
}

// Set hands the engine the frame at the value's own length — prefix plus
// value, not the whole slot — so the engine stages, flushes and later reads
// only the lines those bytes reach.
func (s *treeStore) Set(k, v []byte) error {
	if len(v) > MaxValueSize {
		return ErrValueTooLarge
	}
	frame := framePool.Get().(*[slotSize]byte)
	defer framePool.Put(frame)
	frame[0] = byte(len(v))
	frame[1] = byte(len(v) >> 8)
	copy(frame[2:], v)
	if s.mu != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	return s.t.Upsert(k, frame[:2+len(v)])
}

func (s *treeStore) Get(k []byte) ([]byte, bool) {
	if s.mu != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	v, ok := s.t.Find(k)
	if !ok {
		return nil, false
	}
	return decodeVal(v), true
}

func (s *treeStore) Delete(k []byte) (bool, error) {
	if s.mu != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	return s.t.Delete(k)
}

func (s *treeStore) Name() string { return s.name }

func (s *treeStore) Len() int {
	if s.mu != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	return s.t.Len()
}

func (s *treeStore) CheckInvariants() error {
	if s.mu != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	return s.t.CheckInvariants()
}

func (s *treeStore) RegisterMetrics(reg *obs.Registry) { s.t.RegisterMetrics(reg) }
func (s *treeStore) SetTracer(tr *trace.Tracer)        { s.t.SetTracer(tr) }

func (s *treeStore) NumShards() int  { return 1 }
func (s *treeStore) Shard(int) Store { return s }

// --- the engine table ---------------------------------------------------------

// Engine is one row of the engine table: how to format a store of that kind
// on an arena and how to recover one from it.
type Engine struct {
	// Name is the key memkv's -store flag selects the engine by.
	Name string
	// Concurrent engines synchronise themselves; the others run behind the
	// adapter's global lock.
	Concurrent bool
	// Create formats a fresh store on pool (ignored by the hash map).
	Create func(pool *scm.Pool) (Store, error)
	// Open recovers a store from an arena that already holds one. Nil for
	// an engine with no persistent form.
	Open func(pool *scm.Pool) (Store, error)
	// HasImage reports whether a reopened arena already holds a store of
	// this engine's family — Open it — or is still blank — Create on it. It
	// runs allocator recovery first. Nil exactly when Open is.
	HasImage func(pool *scm.Pool) bool
}

// treeEngine builds the row of a tree engine: its constructors wrapped in
// the adapter, the lock present unless the tree is concurrent.
func treeEngine[T tree](key, name string, concurrent bool, hasImage func(*scm.Pool) bool,
	create func(*scm.Pool) (T, error), open func(*scm.Pool) (T, error)) Engine {
	adapt := func(t T, err error) (Store, error) {
		if err != nil {
			return nil, err
		}
		s := &treeStore{name: name, t: t}
		if !concurrent {
			s.mu = new(sync.Mutex)
		}
		return s, nil
	}
	return Engine{Name: key, Concurrent: concurrent, HasImage: hasImage,
		Create: func(p *scm.Pool) (Store, error) { return adapt(create(p)) },
		Open:   func(p *scm.Pool) (Store, error) { return adapt(open(p)) },
	}
}

// createVar formats a single-threaded core tree; its reopen takes variant
// and layout from the persistent metadata, so openVar serves every variant.
func createVar(cfg core.Config) func(*scm.Pool) (*core.VarTree, error) {
	return func(p *scm.Pool) (*core.VarTree, error) { return core.CreateVar(p, cfg) }
}

func openVar(p *scm.Pool) (*core.VarTree, error) { return core.OpenVar(p) }

// GroupSize is the leaves per leaf group (§4.3) of both FPTree engines. A
// group of the served 8640-byte leaves is 69 KiB, above the allocator's
// largest size class, so a tree keeps its empty groups for its next splits.
// Recovery reads the group stack, one dependent read per group, and then
// every leaf of it in parallel.
const GroupSize = 8

var fptreeC = treeEngine("fptreec", "FPTreeC", true, core.HasTree,
	func(p *scm.Pool) (*core.CVarTree, error) {
		return core.CCreateVar(p, core.Config{LeafCap: 56, InnerFanout: 64, GroupSize: GroupSize, ValueSize: slotSize})
	},
	func(p *scm.Pool) (*core.CVarTree, error) { return core.COpenVar(p) })

// Engines is the engine table, in the order of the paper's Figure 13. memkv,
// fptree-bench's fig13 and the contract tests all iterate it; there is no
// other list of engines.
var Engines = []Engine{
	fptreeC,
	treeEngine("fptree", "FPTree", false, core.HasTree,
		createVar(core.Config{LeafCap: 56, InnerFanout: 2048, GroupSize: GroupSize, ValueSize: slotSize}), openVar),
	treeEngine("ptree", "PTree", false, core.HasTree,
		createVar(core.Config{Variant: core.VariantPTree, LeafCap: 32, InnerFanout: 256, ValueSize: slotSize}), openVar),
	treeEngine("nvtreec", "NV-TreeC", true, nvtree.HasTree,
		func(p *scm.Pool) (nvTree, error) {
			t, err := nvtree.CNewVar(p, nvtree.Config{LeafCap: 32, InnerCap: 128, ValueSize: slotSize})
			return nvTree{t}, err
		},
		func(p *scm.Pool) (nvTree, error) {
			t, err := nvtree.COpenVar(p)
			return nvTree{t}, err
		}),
	{Name: "hashmap", Concurrent: true,
		Create: func(*scm.Pool) (Store, error) { return NewHashMapStore(), nil }},
}

// EngineByName returns the row of the engine table named name.
func EngineByName(name string) (Engine, bool) {
	for _, e := range Engines {
		if e.Name == name {
			return e, true
		}
	}
	return Engine{}, false
}

// NewFPTreeCStore backs the cache with the concurrent FPTree.
func NewFPTreeCStore(pool *scm.Pool) (Store, error) { return fptreeC.Create(pool) }

// OpenFPTreeCStore recovers a concurrent-FPTree store from an arena that
// already holds one, scanning its leaves on workers goroutines (below 1:
// runtime.GOMAXPROCS(0), as fptreec's Open does); the recovered store is the
// same for every count.
func OpenFPTreeCStore(pool *scm.Pool, workers int) (Store, error) {
	t, err := core.COpenVar(pool, core.RecoveryOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	return &treeStore{name: "FPTreeC", t: t}, nil
}

// --- the hash map -------------------------------------------------------------

// NewHashMapStore is vanilla memcached's transient hash table. It enforces
// the same MaxValueSize contract as the tree stores so every engine is
// interchangeable behind the protocol.
func NewHashMapStore() Store {
	return &mapStore{m: map[string][]byte{}}
}

type mapStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

func (s *mapStore) Set(k, v []byte) error {
	if len(v) > MaxValueSize {
		return ErrValueTooLarge
	}
	s.mu.Lock()
	s.m[string(k)] = append([]byte(nil), v...)
	s.mu.Unlock()
	return nil
}

func (s *mapStore) Get(k []byte) ([]byte, bool) {
	s.mu.RLock()
	v, ok := s.m[string(k)]
	s.mu.RUnlock()
	return v, ok
}

func (s *mapStore) Delete(k []byte) (bool, error) {
	s.mu.Lock()
	_, ok := s.m[string(k)]
	delete(s.m, string(k))
	s.mu.Unlock()
	return ok, nil
}

func (s *mapStore) Name() string { return "HashMap" }

func (s *mapStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// The rest of the contract does not apply to a map: it has no structure to
// check, no counters and nothing to trace.
func (s *mapStore) CheckInvariants() error        { return nil }
func (s *mapStore) RegisterMetrics(*obs.Registry) {}
func (s *mapStore) SetTracer(*trace.Tracer)       {}
func (s *mapStore) NumShards() int                { return 1 }
func (s *mapStore) Shard(int) Store               { return s }
