package crashtest

// Sharded variant of the kill -9 test: the child routes the same mixed trace
// through a kvserver.ShardedStore over a fleet of shard arena files
// (<path>.shard<i>), so a SIGKILL lands while several independent trees have
// in-flight persistent state. Recovery must reassemble the whole fleet —
// every shard file replayed, every acknowledged operation served — which is
// exactly the guarantee the sharded memkv server relies on.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"fptree/internal/kvserver"
	"fptree/internal/scm"
)

const killShardCount = 4

// fptreeC is the engine row by whose HasImage both kill -9 children decide
// between create and open, as memkv does.
var fptreeC, _ = kvserver.EngineByName("fptreec")

// openShardedFleet opens (or creates) the shard arenas under path and builds
// the router over one FPTreeC store per shard, deciding between the two as
// memkv does: by the engine row's HasImage.
func openShardedFleet(path string, shards int) (*kvserver.ShardedStore, []*scm.Pool, error) {
	pools, recovered, err := scm.OpenFileShards(path, shards, 16<<20, scm.LatencyConfig{CacheBytes: -1})
	if err != nil {
		return nil, nil, err
	}
	stores, err := kvserver.BuildShardStores(shards, func(i int) (kvserver.Store, error) {
		if recovered[i] && fptreeC.HasImage(pools[i]) {
			return fptreeC.Open(pools[i])
		}
		return fptreeC.Create(pools[i])
	})
	if err != nil {
		scm.ClosePools(pools)
		return nil, nil, err
	}
	router, err := kvserver.NewShardedStore(stores, pools)
	if err != nil {
		scm.ClosePools(pools)
		return nil, nil, err
	}
	return router, pools, nil
}

// killShardedChildMain mirrors killChildMain but drives the sharded router:
// open or recover the fleet, run the shared trace from the given start index
// forever, ack each completed operation. It never exits on its own.
func killShardedChildMain() {
	path := os.Getenv(killPathEnv)
	shards, _ := strconv.Atoi(os.Getenv(killShardsEnv))
	var start int
	fmt.Sscanf(os.Getenv(killStartEnv), "%d", &start)

	router, _, err := openShardedFleet(path, shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(out, "READY")
	out.Flush()
	for i := start; ; i++ {
		k, v, del := killTraceOp(i)
		if del {
			if _, err := router.Delete([]byte(k)); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			if err := router.Set([]byte(k), []byte(v)); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Fprintf(out, "ACK %d\n", i)
		out.Flush()
	}
}

// verifyAckedSharded reopens the fleet in-process and checks the recovered
// router against the acked steps of every child run so far (checkAcked).
func verifyAckedSharded(t *testing.T, path string, shards int, runs [][]int) {
	t.Helper()
	pools, recovered, err := scm.OpenFileShards(path, shards, 0, scm.LatencyConfig{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer scm.ClosePools(pools)
	for i, p := range pools {
		if !recovered[i] {
			t.Fatalf("shard %d arena not recognized as existing", i)
		}
		if p.WasCleanShutdown() {
			t.Fatalf("SIGKILLed child left a clean-shutdown marker on shard %d", i)
		}
	}
	stores, err := kvserver.BuildShardStores(shards, func(i int) (kvserver.Store, error) {
		return kvserver.OpenFPTreeCStore(pools[i], 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	router, err := kvserver.NewShardedStore(stores, pools)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.CheckInvariants(); err != nil {
		t.Fatalf("recovered fleet invariants: %v", err)
	}
	checkAcked(t, runs, router.Get)
}

// TestKillDashNineRecoversSharded is the sharded-durability acceptance test:
// a child driving the 4-shard router is SIGKILLed mid-workload (twice — the
// second child first recovers the fleet the first left behind), and each time
// the reopened fleet must serve every acknowledged operation across all shard
// files and pass the per-shard invariant checks.
func TestKillDashNineRecoversSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	path := filepath.Join(t.TempDir(), "arena.dat")
	extra := []string{fmt.Sprintf("%s=%d", killShardsEnv, killShardCount)}

	acked := killOneChildEnv(t, path, 0, 400, extra)
	if len(acked) == 0 {
		t.Fatal("no operations acked")
	}
	// The kill must have caught a fleet with every shard file on disk.
	for i := 0; i < killShardCount; i++ {
		if _, err := os.Stat(scm.ShardPath(path, i)); err != nil {
			t.Fatalf("shard file %d missing after kill: %v", i, err)
		}
	}
	verifyAckedSharded(t, path, killShardCount, [][]int{acked})

	start := acked[len(acked)-1] + killMaskWindow + 1
	acked2 := killOneChildEnv(t, path, start, 400, extra)
	verifyAckedSharded(t, path, killShardCount, [][]int{acked, acked2})
}
