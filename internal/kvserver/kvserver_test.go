package kvserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
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
// the layout-7 value (leaves with a lock and flags word ahead of the next
// pointer, where this build keeps the next pointer right behind the bitmap —
// what a -data file written before layout 8 holds; core.TestOldLayoutRefused
// hand-builds the whole block for every old version) and checks that the
// store open paths pass on the engine's refusal, which names both layout
// versions.
func TestOpenStoreRefusesOldLeafLayout(t *testing.T) {
	const magicV7 = 0xF97B_0000_4EAF_0007
	const want = "tree has leaf layout v7, this build reads v8"
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
		if _, err := e.Open(p); err != nil {
			t.Fatalf("%s: reopening a current store: %v", e.Name, err)
		}
		magicOff := p.Root().Offset // the magic is the metadata block's first word
		p.WriteU64(magicOff, magicV7)
		p.Persist(magicOff, 8)
		if _, err := e.Open(p); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: open of a layout-7 store: %v, want %q", e.Name, err, want)
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
	c := dial(t, addr)
	defer c.Close()

	if err := c.Set([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.GetAppend(nil, []byte("hello"))
	if err != nil || !ok || string(v) != "world" {
		t.Fatalf("get = %q,%v,%v", v, ok, err)
	}
	if _, ok, err := c.GetAppend(nil, []byte("absent")); err != nil || ok {
		t.Fatalf("absent get = %v,%v", ok, err)
	}
	// Empty value round-trip.
	if err := c.Set([]byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.GetAppend(v[:0], []byte("empty")); !ok || len(v) != 0 {
		t.Fatalf("empty = %q,%v", v, ok)
	}

	// The same commands as one pipelined burst: one reply each, in order.
	p := c.Pipeline()
	p.Set([]byte("p"), []byte("1"))
	p.Get([]byte("p"), []byte("absent"), []byte("hello"))
	p.Set([]byte("p"), nil)
	p.Get([]byte("p"))
	replies, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	want := []Reply{
		{Line: "STORED"},
		{Line: "END", Values: []Item{{"p", []byte("1")}, {"hello", []byte("world")}}},
		{Line: "STORED"},
		{Line: "END", Values: []Item{{"p", []byte{}}}},
	}
	if !reflect.DeepEqual(replies, want) {
		t.Fatalf("pipelined replies = %q, want %q", replies, want)
	}
}

func TestServerDeleteAndVersion(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial(t, addr)
	defer c.Close()

	if err := c.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	found, err := c.Delete([]byte("k"))
	if err != nil || !found {
		t.Fatalf("delete = %v,%v", found, err)
	}
	if _, ok, _ := c.GetAppend(nil, []byte("k")); ok {
		t.Fatal("key survived delete")
	}
	found, err = c.Delete([]byte("k"))
	if err != nil || found {
		t.Fatalf("delete of absent key = %v,%v", found, err)
	}
	ver, err := c.Version()
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
			c, err := Dial(addr, 10*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			var v []byte
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("c%d-%d", w, i))
				if err := c.Set(k, k); err != nil {
					t.Error(err)
					return
				}
				var ok bool
				v, ok, err = c.GetAppend(v[:0], k)
				if err != nil || !ok || string(v) != string(k) {
					t.Errorf("get(%s) = %q,%v,%v", k, v, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentSetSameNewKeys: two clients SET the same new keys in the same
// order, so their SETs race on every key's first store. SET is the tree's
// Upsert, which must store each key once however the racers interleave: the
// store counts every key once, and one DELETE per key leaves nothing behind.
func TestConcurrentSetSameNewKeys(t *testing.T) {
	store, err := NewFPTreeCStore(pool())
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 10000
	key := func(i int) []byte { return []byte(fmt.Sprintf("new-%d", i)) }
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		c := dial(t, addr)
		defer c.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := c.Set(key(i), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := store.Len(); got != n {
		t.Fatalf("store holds %d keys after two clients SET the same %d", got, n)
	}
	if err := store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	defer c.Close()
	for i := 0; i < n; i++ {
		if found, err := c.Delete(key(i)); err != nil || !found {
			t.Fatalf("delete(%s) = %v,%v", key(i), found, err)
		}
		if _, ok, err := c.GetAppend(nil, key(i)); err != nil || ok {
			t.Fatalf("get(%s) after its delete = %v,%v: a second copy survived", key(i), ok, err)
		}
	}
}

func TestMCBenchmarkRuns(t *testing.T) {
	store := NewHashMapStore()
	srv, addr, err := Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := RunMCBenchmark(addr, 4, 400, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Ops <= 0 || res.Get.Ops <= 0 {
		t.Fatalf("rates = %v", res)
	}
	if res.Set.Completed != 400 || res.Get.Completed != 400 {
		t.Fatalf("completed = %d/%d, want 400/400", res.Set.Completed, res.Get.Completed)
	}
	if res.Set.Latency.Count != 400 || res.Get.Latency.Count != 400 {
		t.Fatalf("latency counts = %d/%d", res.Set.Latency.Count, res.Get.Latency.Count)
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
	res, err := RunMCBenchmark(addr, 3, ops, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Completed != ops || res.Get.Completed != ops {
		t.Fatalf("completed = %d/%d, want %d/%d", res.Set.Completed, res.Get.Completed, ops, ops)
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
	c := dial(t, addr)
	defer c.Close()
	if err := c.Set([]byte("big"), bytes.Repeat([]byte("x"), MaxValueSize+1)); err == nil {
		t.Fatal("oversized value accepted")
	}
	// The oversized payload must have been consumed: the connection stays in
	// sync and the next command works.
	if err := c.Set([]byte("ok"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}

// --- protocol edge cases ----------------------------------------------------

// The raw inputs of the edge tests below; FuzzProtocol seeds its corpus with
// them.
const (
	badChunkSet = "set k 0 0 3\r\nabcXY" // the payload ends in XY, not \r\n
	partialSet  = "set k 0 0 100\r\npartial"
)

// noreplyScript is the raw request of TestNoreplyPipelining: noreply sets of
// k0..k49 and a get of k49, then a noreply delete of k49 and another get.
// Only the gets answer.
func noreplyScript() (sets, del string) {
	var b strings.Builder
	for i := 0; i < 50; i++ {
		v := fmt.Sprintf("val-%d", i)
		fmt.Fprintf(&b, "set k%d 0 0 %d noreply\r\n%s\r\n", i, len(v), v)
	}
	b.WriteString("get k49\r\n")
	return b.String(), "delete k49 noreply\r\nget k49\r\n"
}

func dialRaw(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn, bufio.NewReader(conn)
}

// dial connects a Client to addr. Close it before the server, whose Close
// otherwise waits out its drain timeout on the idle connection.
func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestNoreplyPipelining pins the fix for the ignored noreply flag: a
// pipelined stream of noreply sets must produce zero response bytes, so the
// reply to a trailing get lines up with the get — the stream stays in sync.
// The client has no noreply form, so the requests are written raw and the
// replies read through its decoder.
func TestNoreplyPipelining(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial(t, addr)
	defer c.Close()
	c.conn.SetDeadline(time.Now().Add(5 * time.Second))

	sets, del := noreplyScript()
	for _, step := range []struct {
		req  string
		want Reply
	}{
		{sets, Reply{Line: "END", Values: []Item{{"k49", []byte("val-49")}}}},
		{del, Reply{Line: "END"}},
	} {
		if _, err := io.WriteString(c.conn, step.req); err != nil {
			t.Fatal(err)
		}
		if r, err := c.readReply(); err != nil || !reflect.DeepEqual(r, step.want) {
			t.Fatalf("reply = %q,%v, want %q (stream out of sync)", r, err, step.want)
		}
	}
}

func TestMultiKeyGetWithMissingKeys(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial(t, addr)
	defer c.Close()
	if err := c.Set([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Set([]byte("c"), []byte("3")); err != nil {
		t.Fatal(err)
	}

	p := c.Pipeline()
	p.Get([]byte("a"), []byte("b"), []byte("c"), []byte("d"))
	replies, err := p.Exec()
	want := []Reply{{Line: "END", Values: []Item{{"a", []byte("1")}, {"c", []byte("3")}}}}
	if err != nil || !reflect.DeepEqual(replies, want) {
		t.Fatalf("multi-get = %q,%v, want %q", replies, err, want)
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

	if _, err := conn.Write([]byte(badChunkSet)); err != nil {
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
	if _, err := conn.Write([]byte(partialSet)); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The server must still serve a fresh client.
	c := dial(t, addr)
	defer c.Close()
	if err := c.Set([]byte("alive"), []byte("yes")); err != nil {
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

	c1 := dial(t, addr)
	if err := c1.Set([]byte("k"), []byte("v")); err != nil {
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
	c1.Close()
	ok := false
	for i := 0; i < 200 && !ok; i++ {
		c3, err := Dial(addr, 10*time.Second)
		if err == nil {
			if err := c3.Set([]byte("again"), []byte("v")); err == nil {
				ok = true
			}
			c3.Close()
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
	c := dial(t, addr)
	defer c.Close()

	for i := 0; i < 5; i++ {
		if err := c.Set([]byte(fmt.Sprintf("k%d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := c.GetAppend(nil, []byte("k0")); !ok {
		t.Fatal("k0 missing")
	}
	if _, ok, _ := c.GetAppend(nil, []byte("nope")); ok {
		t.Fatal("phantom hit")
	}
	if _, err := c.Delete([]byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Version(); err != nil {
		t.Fatal(err)
	}

	stats, err := c.Stats()
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
