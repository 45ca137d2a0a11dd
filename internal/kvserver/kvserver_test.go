package kvserver

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fptree/internal/scm"
)

// pool is deliberately small: tests store at most a few hundred tiny values,
// and zeroing big arenas dominates test runtime on slow machines.
func pool() *scm.Pool { return scm.NewPool(16<<20, scm.LatencyConfig{}) }

// allStores formats one fresh store per row of the engine table.
func allStores(t *testing.T) []Store {
	t.Helper()
	var stores []Store
	for _, e := range Engines {
		st, err := e.Create(pool())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		stores = append(stores, st)
	}
	return stores
}

func TestStoresSetGet(t *testing.T) {
	for _, s := range allStores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			for i := 0; i < 500; i++ {
				k := []byte(fmt.Sprintf("key-%05d", i))
				v := []byte(strings.Repeat("x", i%100))
				if err := s.Set(k, v); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 500; i++ {
				k := []byte(fmt.Sprintf("key-%05d", i))
				v, ok := s.Get(k)
				if !ok || len(v) != i%100 {
					t.Fatalf("get(%s) = %d bytes, %v", k, len(v), ok)
				}
			}
			if _, ok := s.Get([]byte("absent")); ok {
				t.Fatal("found absent key")
			}
			// Overwrite.
			if err := s.Set([]byte("key-00001"), []byte("new")); err != nil {
				t.Fatal(err)
			}
			if v, _ := s.Get([]byte("key-00001")); string(v) != "new" {
				t.Fatalf("overwrite failed: %q", v)
			}
		})
	}
}

func TestStoresDelete(t *testing.T) {
	for _, s := range allStores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			if err := s.Set([]byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			found, err := s.Delete([]byte("k"))
			if err != nil || !found {
				t.Fatalf("delete = %v,%v", found, err)
			}
			if _, ok := s.Get([]byte("k")); ok {
				t.Fatal("key survived delete")
			}
			found, err = s.Delete([]byte("k"))
			if err != nil || found {
				t.Fatalf("second delete = %v,%v", found, err)
			}
		})
	}
}

func TestStoresOversizedValueError(t *testing.T) {
	big := []byte(strings.Repeat("x", MaxValueSize+1))
	for _, s := range allStores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			err := s.Set([]byte("big"), big)
			if !errors.Is(err, ErrValueTooLarge) {
				t.Fatalf("Set oversized = %v, want ErrValueTooLarge", err)
			}
			if _, ok := s.Get([]byte("big")); ok {
				t.Fatal("oversized value was stored")
			}
			// Exactly MaxValueSize must still fit.
			if err := s.Set([]byte("max"), big[:MaxValueSize]); err != nil {
				t.Fatal(err)
			}
			if v, ok := s.Get([]byte("max")); !ok || len(v) != MaxValueSize {
				t.Fatalf("max-size value = %d bytes, %v", len(v), ok)
			}
		})
	}
}

// TestOpenStoreRefusesOldLeafLayout rewrites a store's tree-metadata magic to
// the layout-3 value (every value padded to the slot, no length in the length
// word's high half — what a -data file written before values had lengths
// holds; core.TestOldLayoutRefused hand-builds the whole block for every old
// version) and checks that the store open paths pass on the engine's refusal,
// which names both layout versions.
func TestOpenStoreRefusesOldLeafLayout(t *testing.T) {
	const magicV3 = 0xF97B_0000_4EAF_0003
	const want = "tree has leaf layout v3, this build reads v4"
	for _, e := range Engines {
		if e.Open == nil || e.Name == "nvtreec" { // only the core trees carry this metadata block
			continue
		}
		p := pool()
		st, err := e.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Set([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Open(p, 2); err != nil {
			t.Fatalf("%s: reopening a current store: %v", e.Name, err)
		}
		magicOff := p.Root().Offset // the magic is the metadata block's first word
		p.WriteU64(magicOff, magicV3)
		p.Persist(magicOff, 8)
		if _, err := e.Open(p, 2); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: open of a layout-3 store: %v, want %q", e.Name, err, want)
		}
	}
}

func TestServerProtocol(t *testing.T) {
	store, err := NewFPTreeCStore(pool())
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := dialMC(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()

	if err := c.set("hello", "world"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.get("hello")
	if err != nil || !ok || v != "world" {
		t.Fatalf("get = %q,%v,%v", v, ok, err)
	}
	if _, ok, err := c.get("absent"); err != nil || ok {
		t.Fatalf("absent get = %v,%v", ok, err)
	}
	// Empty value round-trip.
	if err := c.set("empty", ""); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.get("empty"); !ok || v != "" {
		t.Fatalf("empty = %q,%v", v, ok)
	}
}

func TestServerDeleteAndVersion(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := dialMC(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()

	if err := c.set("k", "v"); err != nil {
		t.Fatal(err)
	}
	found, err := c.delete("k")
	if err != nil || !found {
		t.Fatalf("delete = %v,%v", found, err)
	}
	if _, ok, _ := c.get("k"); ok {
		t.Fatal("key survived delete")
	}
	found, err = c.delete("k")
	if err != nil || found {
		t.Fatalf("delete of absent key = %v,%v", found, err)
	}
	ver, err := c.version()
	if err != nil || ver != Version {
		t.Fatalf("version = %q,%v", ver, err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	store, err := NewFPTreeCStore(pool())
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 8
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dialMC(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.close()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("c%d-%d", w, i)
				if err := c.set(k, k); err != nil {
					t.Error(err)
					return
				}
				v, ok, err := c.get(k)
				if err != nil || !ok || v != k {
					t.Errorf("get(%s) = %q,%v,%v", k, v, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMCBenchmarkRuns(t *testing.T) {
	store := NewHashMapStore()
	srv, addr, err := Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := RunMCBenchmark(addr, 4, 400, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.SetOps <= 0 || res.GetOps <= 0 {
		t.Fatalf("rates = %v", res)
	}
	if res.SetCompleted != 400 || res.GetCompleted != 400 {
		t.Fatalf("completed = %d/%d, want 400/400", res.SetCompleted, res.GetCompleted)
	}
	if res.SetLatency.Count != 400 || res.GetLatency.Count != 400 {
		t.Fatalf("latency counts = %d/%d", res.SetLatency.Count, res.GetLatency.Count)
	}
}

// TestMCBenchmarkRemainder pins the fix for the dropped ops%clients
// remainder: every requested op must run, over a client count that does not
// divide the op count.
func TestMCBenchmarkRemainder(t *testing.T) {
	store := NewHashMapStore()
	srv, addr, err := Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const ops = 10
	res, err := RunMCBenchmark(addr, 3, ops, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.SetCompleted != ops || res.GetCompleted != ops {
		t.Fatalf("completed = %d/%d, want %d/%d", res.SetCompleted, res.GetCompleted, ops, ops)
	}
	for i := 0; i < ops; i++ {
		k := fmt.Sprintf("memtier-%08d", i)
		if _, ok := store.Get([]byte(k)); !ok {
			t.Fatalf("key %s was never set", k)
		}
	}
	if _, ok := store.Get([]byte(fmt.Sprintf("memtier-%08d", ops))); ok {
		t.Fatal("benchmark set more keys than requested")
	}
}

func TestValueTooLargeRejected(t *testing.T) {
	store := NewHashMapStore()
	srv, addr, err := Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := dialMC(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if err := c.set("big", strings.Repeat("x", MaxValueSize+1)); err == nil {
		t.Fatal("oversized value accepted")
	}
	// The oversized payload must have been consumed: the connection stays in
	// sync and the next command works.
	if err := c.set("ok", "v"); err != nil {
		t.Fatal(err)
	}
}

// --- protocol edge cases ----------------------------------------------------

func dialRaw(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn, bufio.NewReader(conn)
}

// TestNoreplyPipelining pins the fix for the ignored noreply flag: a
// pipelined stream of noreply sets must produce zero response bytes, so the
// reply to a trailing get lines up with the get — the stream stays in sync.
func TestNoreplyPipelining(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, r := dialRaw(t, addr)
	defer conn.Close()

	var b strings.Builder
	const n = 50
	for i := 0; i < n; i++ {
		v := fmt.Sprintf("val-%d", i)
		fmt.Fprintf(&b, "set k%d 0 0 %d noreply\r\n%s\r\n", i, len(v), v)
	}
	fmt.Fprintf(&b, "get k%d\r\n", n-1)
	if _, err := conn.Write([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("VALUE k%d 0 ", n-1)
	if !strings.HasPrefix(line, want) {
		t.Fatalf("first response line = %q, want prefix %q (stream out of sync)", line, want)
	}
	if _, err := r.ReadString('\n'); err != nil { // data line
		t.Fatal(err)
	}
	if line, err = r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "END") {
		t.Fatalf("expected END, got %q,%v", line, err)
	}

	// noreply delete pipelined with a get: only the get responds.
	fmt.Fprintf(conn, "delete k%d noreply\r\nget k%d\r\n", n-1, n-1)
	if line, err = r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "END") {
		t.Fatalf("after noreply delete, got %q,%v (want END)", line, err)
	}
}

func TestMultiKeyGetWithMissingKeys(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := dialMC(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if err := c.set("a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := c.set("c", "3"); err != nil {
		t.Fatal(err)
	}

	fmt.Fprintf(c.w, "get a b c d\r\n")
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line = strings.TrimSpace(line)
		got = append(got, line)
		if line == "END" {
			break
		}
	}
	want := []string{"VALUE a 0 1", "1", "VALUE c 0 1", "3", "END"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("multi-get = %v, want %v", got, want)
	}
}

// TestBadDataChunk pins the framing fix: a set whose payload is not
// terminated by \r\n must be rejected with CLIENT_ERROR, and because the
// declared length was consumed the connection stays usable.
func TestBadDataChunk(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, r := dialRaw(t, addr)
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	if _, err := conn.Write([]byte("set k 0 0 3\r\nabcXY")); err != nil {
		t.Fatal(err)
	}
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "CLIENT_ERROR bad data chunk") {
		t.Fatalf("bad chunk response = %q,%v", line, err)
	}
	if _, ok := srv.store.Get([]byte("k")); ok {
		t.Fatal("corrupt set was stored")
	}
	// Connection still in sync.
	if _, err := conn.Write([]byte("set k 0 0 2\r\nok\r\n")); err != nil {
		t.Fatal(err)
	}
	if line, err = r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "STORED") {
		t.Fatalf("after bad chunk, set = %q,%v", line, err)
	}
}

// TestAbruptDisconnectMidPayload drops the connection halfway through a set
// payload; the server must shed the handler and keep serving others.
func TestAbruptDisconnectMidPayload(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, _ := dialRaw(t, addr)
	if _, err := conn.Write([]byte("set k 0 0 100\r\npartial")); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The server must still serve a fresh client.
	c, err := dialMC(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if err := c.set("alive", "yes"); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.store.Get([]byte("k")); ok {
		t.Fatal("partial payload was stored")
	}
}

// TestCloseWithIdleConnection pins the shutdown fix: Close must not deadlock
// on a handler blocked reading from an idle client.
func TestCloseWithIdleConnection(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		t.Fatal(err)
	}
	conn, _ := dialRaw(t, addr)
	defer conn.Close()
	// Let the server register the connection.
	deadlineByConnCount(t, srv, 1)

	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return within 2s with an idle open connection")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v", d)
	}
}

func deadlineByConnCount(t *testing.T, srv *Server, want int64) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if srv.Metrics().CurrConnections.Load() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("server never saw %d connection(s)", want)
}

func TestMaxConnsGracefulRejection(t *testing.T) {
	srv, addr, err := ServeConfig("127.0.0.1:0", NewHashMapStore(), Config{MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c1, err := dialMC(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.set("k", "v"); err != nil {
		t.Fatal(err)
	}

	conn2, r2 := dialRaw(t, addr)
	defer conn2.Close()
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := r2.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "SERVER_ERROR max connections reached") {
		t.Fatalf("second connection got %q,%v", line, err)
	}
	if got := srv.Metrics().RejectedConnections.Load(); got != 1 {
		t.Fatalf("rejected_connections = %d", got)
	}

	// Freeing the slot lets new clients in.
	c1.close()
	ok := false
	for i := 0; i < 200 && !ok; i++ {
		c3, err := dialMC(addr)
		if err == nil {
			if err := c3.set("again", "v"); err == nil {
				ok = true
			}
			c3.close()
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !ok {
		t.Fatal("connection slot never freed after close")
	}
}

func TestReadTimeoutClosesIdleConnection(t *testing.T) {
	srv, addr, err := ServeConfig("127.0.0.1:0", NewHashMapStore(), Config{ReadTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, r := dialRaw(t, addr)
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("expected the server to drop the idle connection")
	}
}

// TestStatsEndToEnd drives the full stack — protocol commands against a
// tree-backed store over TCP — and checks that `stats` reports op counters,
// latency histogram summaries and SCM pool counters.
func TestStatsEndToEnd(t *testing.T) {
	p := pool()
	store, err := NewFPTreeCStore(p)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := ServeConfig("127.0.0.1:0", store, Config{Pools: []*scm.Pool{p}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := dialMC(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()

	for i := 0; i < 5; i++ {
		if err := c.set(fmt.Sprintf("k%d", i), "value"); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := c.get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	if _, ok, _ := c.get("nope"); ok {
		t.Fatal("phantom hit")
	}
	if _, err := c.delete("k1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.version(); err != nil {
		t.Fatal(err)
	}

	stats, err := c.statsCmd("stats")
	if err != nil {
		t.Fatal(err)
	}
	num := func(name string) uint64 {
		t.Helper()
		v, ok := stats[name]
		if !ok {
			t.Fatalf("stats missing %q (got %d lines)", name, len(stats))
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("stat %s = %q: %v", name, v, err)
		}
		return n
	}
	if got := num("cmd_set"); got != 5 {
		t.Fatalf("cmd_set = %d", got)
	}
	if got := num("cmd_get"); got != 2 {
		t.Fatalf("cmd_get = %d", got)
	}
	if num("get_hits") != 1 || num("get_misses") != 1 {
		t.Fatalf("get_hits/misses = %s/%s", stats["get_hits"], stats["get_misses"])
	}
	if num("cmd_delete") != 1 || num("delete_hits") != 1 {
		t.Fatalf("delete counters = %s/%s", stats["cmd_delete"], stats["delete_hits"])
	}
	if num("set_latency_count") != 5 || num("get_latency_count") != 2 {
		t.Fatalf("latency counts = %s/%s", stats["set_latency_count"], stats["get_latency_count"])
	}
	for _, k := range []string{"set_latency_p50_us", "set_latency_p99_us", "get_latency_mean_us"} {
		if _, err := strconv.ParseFloat(stats[k], 64); err != nil {
			t.Fatalf("stat %s = %q: %v", k, stats[k], err)
		}
	}
	if num("scm_reads") == 0 || num("scm_writes") == 0 || num("scm_flushes") == 0 {
		t.Fatalf("scm counters = %s/%s/%s", stats["scm_reads"], stats["scm_writes"], stats["scm_flushes"])
	}
	if num("scm_pool_bytes") != uint64(p.Size()) {
		t.Fatalf("scm_pool_bytes = %s, want %d", stats["scm_pool_bytes"], p.Size())
	}
	if num("bytes_read") == 0 || num("bytes_written") == 0 {
		t.Fatal("byte counters not moving")
	}
	if num("curr_connections") != 1 {
		t.Fatalf("curr_connections = %s", stats["curr_connections"])
	}
	if stats["engine"] != "FPTreeC" {
		t.Fatalf("engine = %q", stats["engine"])
	}
}
