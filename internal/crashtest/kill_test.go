package crashtest

// Real process-death testing: unlike the emulated Crash()/CrashTorn() in the
// rest of this package, these tests SIGKILL a live child process mid-workload
// and recover the tree from the arena file it left behind. The child is this
// same test binary re-executed (TestMain dispatches on an env var); it drives
// a mixed upsert/delete workload against a file-backed concurrent FPTree and
// acknowledges every completed operation on stdout. An acknowledged operation
// has returned from the tree, so its effects were persisted — the restarted
// tree must reflect every one of them.

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fptree/internal/core"
	"fptree/internal/scm"
)

const (
	killChildEnv  = "FPTREE_KILL_CHILD"
	killPathEnv   = "FPTREE_KILL_PATH"
	killStartEnv  = "FPTREE_KILL_START"
	killShardsEnv = "FPTREE_KILL_SHARDS" // > 1: run the sharded-router child
)

func TestMain(m *testing.M) {
	if os.Getenv(killChildEnv) == "1" {
		if shards := os.Getenv(killShardsEnv); shards != "" && shards != "1" {
			killShardedChildMain()
		} else {
			killChildMain()
		}
		return
	}
	os.Exit(m.Run())
}

// killChildMain is the workload the parent SIGKILLs: open (or recover) the
// arena file, then run the deterministic mixed trace from the given start
// index forever, acking each completed operation. It never exits on its own.
func killChildMain() {
	path := os.Getenv(killPathEnv)
	var start int
	fmt.Sscanf(os.Getenv(killStartEnv), "%d", &start)

	pool, recovered, err := scm.OpenFile(path, 64<<20, scm.LatencyConfig{CacheBytes: -1})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var tr *core.CVarTree
	if recovered && fptreeC.HasImage(pool) {
		tr, err = core.COpenVar(pool, core.RecoveryOptions{Workers: 2})
	} else {
		tr, err = core.CCreateVar(pool, core.Config{LeafCap: 8, InnerFanout: 8, ValueSize: 12})
	}
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
			if _, err := tr.Delete([]byte(k)); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			if err := tr.Upsert([]byte(k), []byte(v)); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		// The operation returned, so it is persisted: ack it. The write is
		// unbuffered (per-line flush) so the parent's oracle never runs ahead
		// of the durable state.
		fmt.Fprintf(out, "ACK %d\n", i)
		out.Flush()
	}
}

// killTraceOp is the deterministic trace both sides share: the child executes
// step i, the parent replays acked steps into a map oracle.
func killTraceOp(i int) (key, val string, del bool) {
	k := i % 400
	if i%7 == 3 {
		return fmt.Sprintf("key-%04d", (k+200)%400), "", true
	}
	return fmt.Sprintf("key-%04d", k), fmt.Sprintf("val-%08d", i), false
}

// killOneChild re-execs the test binary as a workload child on path, waits
// for at least minAcks acknowledged operations, SIGKILLs it mid-workload, and
// returns the acked step indices (in order).
func killOneChild(t *testing.T, path string, start, minAcks int) []int {
	t.Helper()
	return killOneChildEnv(t, path, start, minAcks, nil)
}

// killOneChildEnv is killOneChild with extra child environment entries (the
// sharded variant passes its shard count through).
func killOneChildEnv(t *testing.T, path string, start, minAcks int, extraEnv []string) []int {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		killChildEnv+"=1",
		killPathEnv+"="+path,
		fmt.Sprintf("%s=%d", killStartEnv, start),
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	var (
		mu    sync.Mutex
		acked []int
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "ACK ") {
				continue
			}
			var step int
			if _, err := fmt.Sscanf(line, "ACK %d", &step); err != nil {
				continue
			}
			mu.Lock()
			acked = append(acked, step)
			mu.Unlock()
		}
	}()

	// Wait until the child has acked enough work, then kill it without
	// warning — no drain, no Close, no Sync.
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= minAcks {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("child acked only %d/%d operations before deadline", n, minAcks)
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	// Drain before Wait: Wait closes the pipe, and acks the reader had not
	// reached yet would be lost — the child then looks further behind than
	// the mask window covers.
	<-done
	cmd.Wait() //nolint:errcheck — the child was killed, a non-nil error is expected

	mu.Lock()
	defer mu.Unlock()
	return acked
}

// verifyAcked reopens the arena file in-process, recovers the tree, and
// checks it against the acked steps of every child run so far (checkAcked).
func verifyAcked(t *testing.T, path string, runs [][]int) {
	t.Helper()
	pool, recovered, err := scm.OpenFile(path, 0, scm.LatencyConfig{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if !recovered {
		t.Fatal("arena file not recognized as existing")
	}
	if pool.WasCleanShutdown() {
		t.Fatal("SIGKILLed child left a clean-shutdown marker")
	}
	tr, err := core.COpenVar(pool, core.RecoveryOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("recovered tree invariants: %v", err)
	}
	checkAcked(t, runs, tr.Find)
}

// checkAcked checks a recovered store, read through get, against the oracle
// built from the acked steps of every child run so far: acknowledged upserts
// must be present with their latest value, acknowledged deletes must have
// removed the key. A kill can land mid-operation, so for each run the few
// steps after its last ack may or may not have reached the store; the keys
// those steps touch (masked generously: 64 steps per kill point) are excluded
// from the strict comparison. Each subsequent run starts past its
// predecessor's masked window, so the windows never overlap acked work and
// the oracle stays exact everywhere else.
func checkAcked(t *testing.T, runs [][]int, get func(key []byte) ([]byte, bool)) {
	t.Helper()
	oracle := map[string]string{}
	masked := map[string]bool{}
	for _, acked := range runs {
		if len(acked) == 0 {
			continue
		}
		for _, step := range acked {
			k, v, del := killTraceOp(step)
			if del {
				delete(oracle, k)
			} else {
				oracle[k] = v
			}
		}
		last := acked[len(acked)-1]
		for s := last + 1; s <= last+killMaskWindow; s++ {
			k, _, _ := killTraceOp(s)
			masked[k] = true
		}
	}
	for k, want := range oracle {
		if masked[k] {
			continue
		}
		got, ok := get([]byte(k))
		if !ok {
			t.Fatalf("acked key %q lost after kill -9", k)
		}
		if string(got) != want {
			t.Fatalf("acked key %q = %q, oracle %q", k, got, want)
		}
	}
}

// killMaskWindow is how many steps past a run's last ack are treated as
// possibly-landed. The child is at most one operation (plus one torn ack
// line) ahead of its acks; 64 is deliberate overkill.
const killMaskWindow = 64

// TestKillDashNineRecovers is the real-durability acceptance test: a child
// process is SIGKILLed mid-workload (twice — the second child first recovers
// what the first left behind), and each time the reopened arena must serve
// every acknowledged operation and pass the invariant checks.
func TestKillDashNineRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	path := filepath.Join(t.TempDir(), "arena.dat")

	acked := killOneChild(t, path, 0, 400)
	if len(acked) == 0 {
		t.Fatal("no operations acked")
	}
	verifyAcked(t, path, [][]int{acked})

	// Second life: the child recovers the survivor tree and keeps writing
	// from where the trace left off — past the first kill's masked window, so
	// the union oracle stays exact — then is killed again and re-verified.
	start := acked[len(acked)-1] + killMaskWindow + 1
	acked2 := killOneChild(t, path, start, 400)
	verifyAcked(t, path, [][]int{acked, acked2})
}
