package scm

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSyncPoolsFanOut pins the memkv -sync ticker contract: one SyncPools
// reaches every shard pool, skipping the nil entries of a partly built fleet.
func TestSyncPoolsFanOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data")
	pools, _, err := OpenFileShards(path, 3, 1<<20, LatencyConfig{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ClosePools(pools) //nolint:errcheck
	before := make([]uint64, len(pools))
	for i, p := range pools {
		before[i] = p.Stats().Syncs.Load()
	}
	if err := SyncPools(append([]*Pool{nil}, pools...)); err != nil {
		t.Fatal(err)
	}
	for i, p := range pools {
		if got := p.Stats().Syncs.Load(); got != before[i]+1 {
			t.Fatalf("shard %d syncs = %d, want %d", i, got, before[i]+1)
		}
	}
}

// TestClosePoolsMarksClean: ClosePools writes the clean-shutdown marker on
// every shard file, so the next open of each shard reports a clean shutdown
// (the memkv shutdown path relies on this fan-out).
func TestClosePoolsMarksClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data")
	pools, _, err := OpenFileShards(path, 3, 1<<20, LatencyConfig{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	pools[1].WriteU64(headerSize, 42)
	pools[1].Persist(headerSize, 8)
	if err := ClosePools(pools); err != nil {
		t.Fatal(err)
	}
	pools, recovered, err := OpenFileShards(path, 3, 1<<20, LatencyConfig{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ClosePools(pools) //nolint:errcheck
	for i, p := range pools {
		if !recovered[i] || !p.WasCleanShutdown() {
			t.Fatalf("shard %d: recovered = %v, clean = %v after ClosePools", i, recovered[i], p.WasCleanShutdown())
		}
	}
}

// TestOpenFileShardsLayoutGuard: the shard count is part of the on-disk
// layout, a fleet of one living in the data path itself. An open with any
// other count than the files were written with is refused in both
// directions, and creates nothing.
func TestOpenFileShardsLayoutGuard(t *testing.T) {
	cfg := LatencyConfig{CacheBytes: -1}
	for _, tc := range []struct {
		name        string
		wrote, open int
		want        string // "" = the reopen succeeds
	}{
		{"same width", 4, 4, ""},
		{"one is the bare path", 1, 1, ""},
		{"narrower", 4, 2, "sharded wider than 2"},
		{"sharded reopened as one", 4, 1, "sharded wider than 1"},
		{"one reopened as sharded", 1, 2, "holds an unsharded arena"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "data")
			pools, _, err := OpenFileShards(path, tc.wrote, 1<<20, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := ClosePools(pools); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(path); (err == nil) != (tc.wrote == 1) {
				t.Fatalf("bare arena %s exists = %v after writing %d shard(s)", path, err == nil, tc.wrote)
			}
			files, _ := os.ReadDir(dir)
			pools, recovered, err := OpenFileShards(path, tc.open, 1<<20, cfg)
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range recovered {
					if !r {
						t.Fatalf("shard %d was created, not recovered", i)
					}
				}
				ClosePools(pools) //nolint:errcheck
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("open with %d shards over %d = %v, want %q", tc.open, tc.wrote, err, tc.want)
			}
			if after, _ := os.ReadDir(dir); len(after) != len(files) {
				t.Fatalf("the refused open left %d files where there were %d", len(after), len(files))
			}
		})
	}
}
