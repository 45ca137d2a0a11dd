package main

// End-to-end durability test of the real memkv binary: build it, run it with
// -data, SIGKILL it mid-workload over the live TCP connection, restart it on
// the same arena file and check that every acknowledged set survives and the
// recovery banner reports a consistent tree.

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fptree/internal/htm"
	"fptree/internal/kvserver"
)

// buildMemkv compiles the binary under test once per test run.
func buildMemkv(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "memkv-under-test")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// memkvProc is one running memkv child and its captured stdout.
type memkvProc struct {
	cmd   *exec.Cmd
	mu    sync.Mutex
	lines []string
	done  chan struct{}
}

func startMemkv(t *testing.T, bin string, args ...string) *memkvProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &memkvProc{cmd: cmd, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck
		cmd.Wait()         //nolint:errcheck
	})
	return p
}

// waitLine polls the captured stdout for a line containing substr and
// returns it.
func (p *memkvProc) waitLine(t *testing.T, substr string) string {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		p.mu.Lock()
		for _, l := range p.lines {
			if strings.Contains(l, substr) {
				p.mu.Unlock()
				return l
			}
		}
		p.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t.Fatalf("memkv never printed %q; output so far:\n%s", substr, strings.Join(p.lines, "\n"))
	return ""
}

// boundAddr extracts the listen address from the startup banner.
func (p *memkvProc) boundAddr(t *testing.T) string {
	t.Helper()
	line := p.waitLine(t, "listening on")
	f := strings.Fields(line)
	for i, w := range f {
		if w == "on" && i+1 < len(f) {
			return f[i+1]
		}
	}
	t.Fatalf("cannot parse listen address from %q", line)
	return ""
}

// dialMemkv connects a client to a freshly started server for the rest of
// the test, retrying while the listener comes up.
func dialMemkv(t *testing.T, addr string) *kvserver.Client {
	t.Helper()
	var c *kvserver.Client
	var err error
	for i := 0; i < 100; i++ {
		if c, err = kvserver.Dial(addr, 10*time.Second); err == nil {
			t.Cleanup(func() { c.Close() })
			return c
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal(err)
	return nil
}

// TestMemkvKillRestart drives the acceptance scenario end to end:
//
//  1. memkv -data serves sets, each acknowledged with STORED;
//  2. the process dies by SIGKILL mid-workload;
//  3. a fresh memkv on the same -data file recovers, reports a crash
//     shutdown with intact invariants, and serves every acknowledged key;
//  4. after a graceful SIGTERM the next start reports a clean shutdown.
func TestMemkvKillRestart(t *testing.T) { killRestart(t, "fptreec", 1) }

// TestMemkvKillRestartNVTree is the same scenario on the NV-Tree baseline,
// whose arena image core.HasTree does not know: memkv asks the engine's own
// HasImage whether to create or to open, so the restarts recover instead of
// trying to format an arena that already holds a tree.
func TestMemkvKillRestartNVTree(t *testing.T) { killRestart(t, "nvtreec", 1) }

// TestMemkvShardedKillRestart is the scenario on a 4-shard server: the acked
// sets spread over 4 shard arena files must all survive a SIGKILL, every
// shard must recover (in parallel) on restart, and a graceful stop must mark
// every shard arena clean.
func TestMemkvShardedKillRestart(t *testing.T) { killRestart(t, "fptreec", 4) }

func killRestart(t *testing.T, store string, shards int) {
	if testing.Short() {
		t.Skip("builds and kills real server processes")
	}
	dir := t.TempDir()
	bin := buildMemkv(t, dir)
	arena := filepath.Join(dir, "memkv.dat")
	args := []string{"-addr", "127.0.0.1:0", "-store", store, "-data", arena, "-pool", "64", "-stats=false"}
	layout := arena
	if shards > 1 {
		args = append(args, "-shards", fmt.Sprint(shards), "-sync", "25ms")
		layout = fmt.Sprintf("%s across %d shards", arena, shards)
	}

	p1 := startMemkv(t, bin, args...)
	p1.waitLine(t, "created arena")
	c := dialMemkv(t, p1.boundAddr(t))

	const n = 500
	acked := map[string]string{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("user:%04d", i%300)
		v := fmt.Sprintf("payload-%06d", i)
		if err := c.Set([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		acked[k] = v
	}
	// Every shard file must exist — the keys must actually be partitioned.
	for i := 0; shards > 1 && i < shards; i++ {
		if _, err := os.Stat(fmt.Sprintf("%s.shard%d", arena, i)); err != nil {
			t.Fatalf("shard arena %d: %v", i, err)
		}
	}
	// checkAcked reads every acknowledged key back from a restarted server.
	checkAcked := func(p *memkvProc, when string) {
		t.Helper()
		c := dialMemkv(t, p.boundAddr(t))
		var v []byte
		for k, want := range acked {
			var ok bool
			var err error
			if v, ok, err = c.GetAppend(v[:0], []byte(k)); err != nil || !ok || string(v) != want {
				t.Fatalf("key %q = %q,%v,%v %s, want %q", k, v, ok, err, when, want)
			}
		}
	}

	// Kill without warning while the connection is live.
	if err := p1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	p1.cmd.Wait() //nolint:errcheck
	<-p1.done

	p2 := startMemkv(t, bin, args...)
	banner := p2.waitLine(t, "recovered")
	for _, want := range []string{"from " + layout + " (", "crash shutdown", "invariants ok"} {
		if !strings.Contains(banner, want) {
			t.Fatalf("recovery banner %q lacks %q", banner, want)
		}
	}
	checkAcked(p2, "after kill -9")

	// Graceful shutdown marks every arena clean; the next start reports it.
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	p2.cmd.Wait() //nolint:errcheck
	<-p2.done
	p2.waitLine(t, "closed cleanly")

	p3 := startMemkv(t, bin, args...)
	if banner3 := p3.waitLine(t, "recovered"); !strings.Contains(banner3, "clean shutdown") {
		t.Fatalf("banner after graceful stop: %q", banner3)
	}
	checkAcked(p3, "after clean restart")
}

// TestMemkvShardMismatchFails pins the layout guard: reopening a data path
// with another -shards value than it was written with must fail by name, in
// either direction, instead of silently stranding keys — a narrower fleet
// drops the extra shards' keys, and a fleet of one beside shard files (or a
// fleet beside a bare arena) would serve an empty store.
func TestMemkvShardMismatchFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the server binary")
	}
	bin := buildMemkv(t, t.TempDir())
	for _, tc := range []struct {
		name   string
		wrote  []string // -shards of the run that creates the data path
		reopen []string
		want   string
	}{
		{"4 to 2", []string{"-shards", "4"}, []string{"-shards", "2"}, "sharded wider than 2"},
		{"4 to default", []string{"-shards", "4"}, nil, "sharded wider than 1"},
		{"1 to 2", nil, []string{"-shards", "2"}, "holds an unsharded arena"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			arena := filepath.Join(dir, "memkv.dat")
			base := []string{"-addr", "127.0.0.1:0", "-store", "fptreec", "-data", arena, "-pool", "64", "-stats=false"}

			p1 := startMemkv(t, bin, append(base, tc.wrote...)...)
			p1.waitLine(t, "created arena")
			if err := p1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			p1.cmd.Wait() //nolint:errcheck
			files, _ := os.ReadDir(dir)

			out, err := exec.Command(bin, append(base, tc.reopen...)...).CombinedOutput()
			if err == nil {
				t.Fatalf("mismatched reopen succeeded:\n%s", out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("error output %q does not name the mismatch (%q)", out, tc.want)
			}
			if after, _ := os.ReadDir(dir); len(after) != len(files) {
				t.Fatalf("the refused reopen left %d files where there were %d", len(after), len(files))
			}
		})
	}
}

// TestMemkvHashmapRejectsData pins the transient store's contract.
func TestMemkvHashmapRejectsData(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the server binary")
	}
	dir := t.TempDir()
	bin := buildMemkv(t, dir)
	cmd := exec.Command(bin, "-store", "hashmap", "-data", filepath.Join(dir, "x.dat"))
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("hashmap with -data succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "cannot use -data") {
		t.Fatalf("unexpected error output: %s", out)
	}
}

// TestRetryPolicyHasNoSwitch pins the surface of the one retry policy so it
// cannot grow back unnoticed: the controller's configuration is the four
// fields something sets, and memkv has no flag that turns the controller on
// or off or tunes it. A new field has to edit this test and say who sets it.
func TestRetryPolicyHasNoSwitch(t *testing.T) {
	var fields []string
	for ct, i := reflect.TypeOf(htm.AdaptiveConfig{}), 0; i < ct.NumField(); i++ {
		fields = append(fields, ct.Field(i).Name)
	}
	if want := []string{"Floor", "Ceiling", "AdaptEvery", "AlwaysFallback"}; !reflect.DeepEqual(fields, want) {
		t.Errorf("htm.AdaptiveConfig fields = %v, want exactly %v", fields, want)
	}

	usage, _ := exec.Command(buildMemkv(t, t.TempDir()), "-h").CombinedOutput() // -h exits 2 by flag's convention
	if !strings.Contains(string(usage), "  -shards") {
		t.Fatalf("memkv -h did not print its flags:\n%s", usage)
	}
	if strings.Contains(string(usage), "  -adaptive") {
		t.Errorf("memkv has a controller flag again:\n%s", usage)
	}
}
