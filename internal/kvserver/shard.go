package kvserver

// ShardedStore is the router of the sharded engine: the keyspace is
// hash-partitioned across N independent shard stores, each an FPTree over
// its own scm.Pool (its own arena file, allocator and occCC domain), so
// concurrent clients touching different shards share no synchronization at
// all — the contention Brown's HTM-template work shows dominating
// single-structure scaling simply has no object to form on. The router
// itself is a Store, so the protocol layer composes with it unchanged.

import (
	"fmt"
	"hash/fnv"
	"sync"

	"fptree/internal/obs"
	"fptree/internal/obs/trace"
	"fptree/internal/scm"
)

// ShardedStore routes each key to one of N shard stores by consistent hash.
type ShardedStore struct {
	shards []Store
}

// NewShardedStore builds a router over the given shard stores. pools, when
// not nil, is the SCM pool behind each shard and must pair up with shards;
// the router itself does not keep it — whoever owns the pools syncs and
// closes them (scm.SyncPools, scm.ClosePools) and hands them to the server
// as Config.Pools for the scm_* stats.
func NewShardedStore(shards []Store, pools []*scm.Pool) (*ShardedStore, error) {
	if len(shards) < 1 {
		return nil, fmt.Errorf("kvserver: sharded store needs at least 1 shard")
	}
	if pools != nil && len(pools) != len(shards) {
		return nil, fmt.Errorf("kvserver: %d shards but %d pools", len(shards), len(pools))
	}
	return &ShardedStore{shards: shards}, nil
}

// ShardFor returns the shard index serving key. The mapping is a consistent
// hash (FNV-1a 64 into Lamping-Veach jump hash): stable across process
// restarts for a fixed shard count — the property the shard arena files rely
// on — and moving only ~1/N of keys if the fleet is ever rehashed wider.
func (s *ShardedStore) ShardFor(key []byte) int {
	return jumpHash(fnv64a(key), len(s.shards))
}

func fnv64a(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key) //nolint:errcheck — fnv never fails
	return h.Sum64()
}

// jumpHash is the Lamping-Veach jump consistent hash: maps key to a bucket
// in [0, buckets) such that growing the bucket count relocates only the
// minimal fraction of keys.
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// NumShards returns the shard count.
func (s *ShardedStore) NumShards() int { return len(s.shards) }

// Shard returns shard store i (for tests and per-shard reporting).
func (s *ShardedStore) Shard(i int) Store { return s.shards[i] }

// Set routes to the key's shard.
func (s *ShardedStore) Set(key, value []byte) error {
	return s.shards[s.ShardFor(key)].Set(key, value)
}

// Get routes to the key's shard.
func (s *ShardedStore) Get(key []byte) ([]byte, bool) {
	return s.shards[s.ShardFor(key)].Get(key)
}

// Delete routes to the key's shard.
func (s *ShardedStore) Delete(key []byte) (bool, error) {
	return s.shards[s.ShardFor(key)].Delete(key)
}

// Name reports the shard engine and the fleet width, e.g. "FPTreeC[4 shards]".
func (s *ShardedStore) Name() string {
	return fmt.Sprintf("%s[%d shards]", s.shards[0].Name(), len(s.shards))
}

// Len sums the shard sizes.
func (s *ShardedStore) Len() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.Len()
	}
	return total
}

// CheckInvariants fans out across the shards in parallel (each check walks
// its own tree, so they don't contend) and reports the first failure with
// its shard index.
func (s *ShardedStore) CheckInvariants() error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh Store) {
			defer wg.Done()
			if err := sh.CheckInvariants(); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SetTracer hands the tracer to every shard.
func (s *ShardedStore) SetTracer(tr *trace.Tracer) {
	for _, sh := range s.shards {
		sh.SetTracer(tr)
	}
}

// RegisterMetrics exposes the fleet on reg: every shard registers through
// its shard view, so each of its series is there as {shard="i"} and the
// registry keeps the fleet value under the unlabeled name a lone store would
// use — dashboards read the same series whatever the shard count. A
// memkv_shard_len gauge per shard shows the key distribution.
func (s *ShardedStore) RegisterMetrics(reg *obs.Registry) {
	for i, sh := range s.shards {
		sh.RegisterMetrics(reg.Shard(i))
		reg.GaugeFuncL("memkv_shard_len", obs.ShardLabel(i), "live keys resident in this shard",
			func() float64 { return float64(sh.Len()) })
	}
}

// BuildShardStores constructs one store per pool by calling build(i) for
// every shard concurrently — each build may run a full crash recovery, and
// the paper's §6 recovery experiment (PR 5) showed those parallelize almost
// linearly, so a 4-shard reopen costs barely more than the widest shard.
// On any failure the first error (by shard index) is returned.
func BuildShardStores(n int, build func(i int) (Store, error)) ([]Store, error) {
	stores := make([]Store, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stores[i], errs[i] = build(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return stores, nil
}
