package scm

// Multi-arena helpers for sharded stores: a keyspace partitioned over N
// independent FPTree shards keeps one arena file per shard, so shards never
// contend on an allocator or a durable region and each one recovers
// independently. A fleet of one lives in the data path itself; a wider fleet
// in <data>.shard<i>. These helpers open, sync and close the whole fleet with
// the same create-or-recover semantics OpenFile gives a single arena.

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// ShardPath returns the arena file path of shard i of a data path sharded
// two or more ways: "<path>.shard<i>".
func ShardPath(path string, i int) string {
	return fmt.Sprintf("%s.shard%d", path, i)
}

// OpenFileShards opens (or creates) the n arena files of path — path itself
// when n is 1, ShardPath(path, 0..n-1) otherwise — each with
// create-or-recover semantics (see OpenFile). recovered[i] reports whether
// shard i held an existing image. capacityEach sizes each fresh shard arena.
//
// The on-disk shard count is part of the store's identity — a key hashed to
// shard 2 of 4 is unreachable in a 2-shard layout, and every key of a fleet
// is unreachable from an empty arena created beside it — so before anything
// is created the open refuses a layout that disagrees with n: shard files
// beyond index n-1 (any shard file at all when n is 1), or an unsharded
// arena at path when n > 1. Missing files among 0..n-1 are created fresh,
// which keeps a crash during first-time formatting recoverable.
//
// On error, any pools opened so far are closed; on success the caller owns
// all n pools and should release them with ClosePools (or SyncPools for
// periodic power-fail durability).
func OpenFileShards(path string, n int, capacityEach int64, cfg LatencyConfig) (pools []*Pool, recovered []bool, err error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("scm: shard count %d < 1", n)
	}
	if err := checkShardLayout(path, n); err != nil {
		return nil, nil, err
	}
	pools = make([]*Pool, n)
	recovered = make([]bool, n)
	for i := 0; i < n; i++ {
		file := path
		if n > 1 {
			file = ShardPath(path, i)
		}
		p, rec, err := OpenFile(file, capacityEach, cfg)
		if err != nil {
			ClosePools(pools[:i]) //nolint:errcheck — surfacing the open error
			return nil, nil, fmt.Errorf("scm: shard %d/%d: %w", i, n, err)
		}
		pools[i], recovered[i] = p, rec
	}
	return pools, recovered, nil
}

// checkShardLayout refuses a data path whose files were written with a shard
// count other than n, in either direction.
func checkShardLayout(path string, n int) error {
	if n > 1 {
		if fi, err := os.Stat(path); err == nil && !fi.IsDir() {
			return fmt.Errorf("scm: %s holds an unsharded arena but %d shards were asked for; reopen with 1 shard", path, n)
		}
	}
	first := n // lowest shard index that must not exist
	if n == 1 {
		first = 0
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	prefix := filepath.Base(path) + ".shard"
	var extra []string
	for _, e := range entries {
		idx, ok := strings.CutPrefix(e.Name(), prefix)
		if !ok {
			continue
		}
		if i, err := strconv.Atoi(idx); err == nil && i >= first {
			extra = append(extra, e.Name())
		}
	}
	if len(extra) > 0 {
		return fmt.Errorf("scm: %s was sharded wider than %d (found %s); reopen with the original shard count",
			path, n, strings.Join(extra, ", "))
	}
	return nil
}

// SyncPools makes every pool's durable view power-fail durable (Pool.Sync on
// each). All pools are synced even if one fails; the first error wins.
func SyncPools(pools []*Pool) error {
	var first error
	for _, p := range pools {
		if p == nil {
			continue
		}
		if err := p.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ClosePools closes every pool (clean-shutdown marker + sync + release). All
// pools are closed even if one fails; the first error wins. nil entries are
// skipped, so partially-built fleets can be torn down with it.
func ClosePools(pools []*Pool) error {
	var first error
	for _, p := range pools {
		if p == nil {
			continue
		}
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
