package core

import (
	"fptree/internal/scm"
)

// Index is the FPTree: Selective Persistence (leaves in SCM, inner nodes in
// DRAM), Fingerprinting, unsorted leaves with a p-atomic validity bitmap, and
// micro-logged splits and deletes. It has two independent choices, the key
// and the controller:
//
//   - K picks the codec. Index[uint64, uint64] stores 8-byte keys and values
//     inline (Tree, CTree). Index[[]byte, []byte] is the Appendix C format
//     (VarTree, CVarTree): a key of at most 16 bytes is stored in the slot's
//     key cell, a longer one in a separately allocated SCM block the cell
//     points to, owned through the leak-prevention allocator interface and
//     reclaimed after a crash by the Algorithm 17 scan; each value is stored
//     inline up to Config.ValueSize bytes and returned at the length it was
//     stored with.
//   - The constructor picks the controller. Create and CreateVar make a
//     single-threaded tree that amortizes leaf allocations through leaf
//     groups; it is not safe for concurrent use, but its read-only calls
//     (Find, Scan/ScanN, iterators) may be shared between goroutines while no
//     writer runs. CCreate and CCreateVar make a Selective Concurrency tree
//     (§5): the DRAM inner nodes are traversed optimistically with version
//     validation — the package htm emulation of running the traversal inside
//     an HTM transaction — while the SCM leaves are protected by fine-grained
//     leaf locks, and every persistence primitive executes outside the
//     optimistic region, as in Figure 6. Structure modifications re-descend
//     pessimistically with lock crabbing. Leaf groups are used when
//     Config.GroupSize asks for them, unlike the paper's concurrent tree,
//     which drops them as a central synchronization point: a split holds
//     the groups' mutex for a DRAM pop, and a group push once per group
//     (groups.go), and recovery gets an address for every leaf.
//
// Its point operations are the engine's (engine.go), promoted through the
// one embedded pointer; the range reads and BulkLoad are written once below.
type Index[K, V any] struct {
	*engine[K, V]
}

// Tree, CTree, VarTree and CVarTree name the four variants of Section 5 and
// Appendix C. Tree and CTree are the same type, as are VarTree and CVarTree:
// the constructor decides which controller a tree runs.
type (
	Tree     = Index[uint64, uint64]
	CTree    = Index[uint64, uint64]
	VarTree  = Index[[]byte, []byte]
	CVarTree = Index[[]byte, []byte]
)

// Pair is one key-value pair.
type Pair[K, V any] struct {
	Key   K
	Value V
}

// KV is one fixed-size key-value pair; VarKV one variable-size-key pair.
type (
	KV    = Pair[uint64, uint64]
	VarKV = Pair[[]byte, []byte]
)

// FixedIterator iterates 8-byte keys and values; VarIterator byte-string keys
// and values.
type (
	FixedIterator = Iter[uint64, uint64]
	VarIterator   = Iter[[]byte, []byte]
)

// MemoryStats reports a tree's memory footprint split by medium, for the
// Figure 8 experiment.
type MemoryStats struct {
	SCMBytes  uint64 // SCM consumed by the whole arena's live allocations
	DRAMBytes uint64 // estimated DRAM held by inner nodes and volatile state
	Leaves    int
	Inners    int
}

// Create formats a new single-threaded fixed-size-key FPTree in the pool.
// The pool must be empty (null root).
func Create(pool *scm.Pool, cfg Config) (*Tree, error) {
	return create[uint64, uint64](pool, cfg, nopCC{})
}

// CCreate formats a new concurrent fixed-size-key FPTree in the pool.
func CCreate(pool *scm.Pool, cfg Config) (*CTree, error) {
	return create[uint64, uint64](pool, cfg, occCC{pool})
}

// CreateVar formats a new single-threaded variable-size-key FPTree.
func CreateVar(pool *scm.Pool, cfg Config) (*VarTree, error) {
	return create[[]byte, []byte](pool, cfg, nopCC{})
}

// CCreateVar formats a new concurrent variable-size-key FPTree.
func CCreateVar(pool *scm.Pool, cfg Config) (*CVarTree, error) {
	return create[[]byte, []byte](pool, cfg, occCC{pool})
}

// Open recovers a single-threaded fixed-size-key FPTree from a pool that
// survived a crash or restart: it replays the allocator intent and every
// micro-log, then rebuilds the DRAM-resident inner nodes and the volatile
// free-leaf vector (Algorithm 9). The var forms also run the Algorithm 17
// leak scan; the concurrent forms build fresh leaf locks. The leaf scan
// runs on runtime.GOMAXPROCS(0) goroutines unless a RecoveryOptions sets
// the count; the recovered tree and arena are identical for every count.
func Open(pool *scm.Pool, opts ...RecoveryOptions) (*Tree, error) {
	return open[uint64, uint64](pool, nopCC{}, opts)
}

// COpen recovers a concurrent fixed-size-key FPTree; see Open.
func COpen(pool *scm.Pool, opts ...RecoveryOptions) (*CTree, error) {
	return open[uint64, uint64](pool, occCC{pool}, opts)
}

// OpenVar recovers a single-threaded variable-size-key FPTree; see Open.
func OpenVar(pool *scm.Pool, opts ...RecoveryOptions) (*VarTree, error) {
	return open[[]byte, []byte](pool, nopCC{}, opts)
}

// COpenVar recovers a concurrent variable-size-key FPTree; see Open.
func COpenVar(pool *scm.Pool, opts ...RecoveryOptions) (*CVarTree, error) {
	return open[[]byte, []byte](pool, occCC{pool}, opts)
}

func create[K, V any](pool *scm.Pool, cfg Config, cc concurrency) (*Index[K, V], error) {
	e, err := createEngine[K, V](pool, cfg, cc)
	if err != nil {
		return nil, err
	}
	return &Index[K, V]{e}, nil
}

func open[K, V any](pool *scm.Pool, cc concurrency, opts []RecoveryOptions) (*Index[K, V], error) {
	e, err := openEngine[K, V](pool, cc, recoveryOpts(opts))
	if err != nil {
		return nil, err
	}
	return &Index[K, V]{e}, nil
}

// Scan visits live pairs with key >= from in ascending key order until fn
// returns false. It seeks leaf by leaf through the inner nodes, using the
// separators to find each leaf's upper bound, on both controllers: a
// persistent next pointer is never followed, since a concurrently freed leaf
// could be reused under the reader.
func (t *Index[K, V]) Scan(from K, fn func(k K, v V) bool) { t.engine.scan(from, fn) }

// ScanN returns up to n pairs with key >= from (nil when n <= 0). The result
// is pre-sized to min(n, Len()), so a large n does not over-allocate.
func (t *Index[K, V]) ScanN(from K, n int) []Pair[K, V] {
	if n <= 0 {
		return nil
	}
	out := make([]Pair[K, V], 0, min(n, t.Len()))
	t.engine.scan(from, func(k K, v V) bool {
		out = append(out, Pair[K, V]{k, v})
		return len(out) < n
	})
	return out
}

// Iterator returns a resumable ascending iterator over the window
// [start, end); the zero key (0, or a nil or empty byte string) leaves an
// edge unbounded. The iterator is created positioned on the window's first
// key (check Valid); Close it when done. On the concurrent tree it is safe to
// advance while other goroutines mutate the tree; see Iter for the exact
// guarantees.
func (t *Index[K, V]) Iterator(start, end K) *Iter[K, V] {
	return t.engine.iterator(t.cdc.edge(start), t.cdc.edge(end), false)
}

// ReverseIterator returns a resumable descending iterator over [start, end),
// positioned on the greatest key below end (a zero end: the maximum key).
// Reverse steps on the concurrent tree re-seek through the inner nodes — the
// leaf list only links forward — so they cost one descent per leaf.
func (t *Index[K, V]) ReverseIterator(start, end K) *Iter[K, V] {
	return t.engine.iterator(t.cdc.edge(start), t.cdc.edge(end), true)
}

// BulkLoad populates an empty single-threaded tree from pairs sorted by key
// (bytewise for byte-string keys) far faster than repeated inserts; fill is
// the leaf fill factor (0 = DefaultBulkFill). See bulkLoad for the crash
// contract.
func (t *Index[K, V]) BulkLoad(kvs []Pair[K, V], fill float64) error {
	return t.engine.bulkLoad(len(kvs), fill, func(i int) (K, V) { return kvs[i].Key, kvs[i].Value })
}
