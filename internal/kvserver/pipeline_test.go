package kvserver

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// pipelineScript builds a deterministic burst of mixed commands — sets (some
// noreply), multi-gets, deletes (some noreply), protocol errors, version —
// followed by the expected response bytes. stats is excluded (its output is
// nondeterministic); quit terminates the script so the full response stream
// has a definite end.
func pipelineScript() (request, want string) {
	var req, exp strings.Builder
	for i := 0; i < 40; i++ {
		v := fmt.Sprintf("value-%02d", i)
		if i%3 == 0 {
			fmt.Fprintf(&req, "set k%02d 0 0 %d noreply\r\n%s\r\n", i, len(v), v)
		} else {
			fmt.Fprintf(&req, "set k%02d 0 0 %d\r\n%s\r\n", i, len(v), v)
			exp.WriteString("STORED\r\n")
		}
	}
	for i := 0; i < 40; i += 4 {
		fmt.Fprintf(&req, "get k%02d k%02d absent-%d\r\n", i, i+1, i)
		for j := i; j <= i+1; j++ {
			v := fmt.Sprintf("value-%02d", j)
			fmt.Fprintf(&exp, "VALUE k%02d 0 %d\r\n%s\r\n", j, len(v), v)
		}
		exp.WriteString("END\r\n")
	}
	req.WriteString("delete k00 noreply\r\n")
	req.WriteString("delete k01\r\n")
	exp.WriteString("DELETED\r\n")
	req.WriteString("delete k00\r\n")
	exp.WriteString("NOT_FOUND\r\n")
	req.WriteString("bogus command\r\n")
	exp.WriteString("ERROR\r\n")
	req.WriteString("get k00 k02\r\n")
	v := "value-02"
	fmt.Fprintf(&exp, "VALUE k02 0 %d\r\n%s\r\nEND\r\n", len(v), v)
	req.WriteString("version\r\n")
	exp.WriteString("VERSION " + Version + "\r\n")
	req.WriteString("quit\r\n")
	return req.String(), exp.String()
}

func runPipelineScript(t *testing.T, addr string) string {
	t.Helper()
	req, _ := pipelineScript()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	// quit closes the connection after the buffered replies flush, so EOF
	// delimits the full response.
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return string(got)
}

// TestPipelinedBurstByteForByte pins the pipelining contract: a single write
// carrying the whole command burst must produce exactly the replies of
// sequential execution, in command order, with noreply commands contributing
// nothing — and the sharded server must be byte-identical to the unsharded
// one, since routing must not reorder or reframe replies.
func TestPipelinedBurstByteForByte(t *testing.T) {
	_, want := pipelineScript()

	srv1, addr1, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()
	got1 := runPipelineScript(t, addr1)
	if got1 != want {
		t.Fatalf("unsharded response diverges:\ngot:  %q\nwant: %q", got1, want)
	}

	srv4, addr4, err := Serve("127.0.0.1:0", newShardedFPTreeC(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv4.Close()
	got4 := runPipelineScript(t, addr4)
	if got4 != got1 {
		t.Fatalf("sharded response diverges from unsharded:\nsharded:   %q\nunsharded: %q", got4, got1)
	}
}

// TestPipelineDeepBurst sends a burst of 512 small gets before the client
// reads anything: the replies must leave under back-pressure without
// deadlock, and every reply must arrive in order.
func TestPipelineDeepBurst(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.store.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(addr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const burst = 512
	p := c.Pipeline()
	for i := 0; i < burst; i++ {
		p.Get([]byte("k"))
	}
	replies, err := p.Exec()
	if err != nil || len(replies) != burst {
		t.Fatalf("%d of %d replies: %v", len(replies), burst, err)
	}
	want := Reply{Line: "END", Values: []Item{{"k", []byte("v")}}}
	for i, r := range replies {
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("reply %d = %q, want %q", i, r, want)
		}
	}
}

// value120 is a reply large enough that a burst of gets outgrows the
// connection's 4 KiB write buffer.
var value120 = bytes.Repeat([]byte{'v'}, 120)

// TestWriteTimeoutLateBurst pins that WriteTimeout bounds every write to the
// socket, including the ones a burst's replies make when they fill the write
// buffer before the flush: a burst arriving long after the previous flush
// must not be written under that flush's expired deadline.
func TestWriteTimeoutLateBurst(t *testing.T) {
	srv, addr, err := ServeConfig("127.0.0.1:0", NewHashMapStore(), Config{WriteTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.store.Set([]byte("k"), value120); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	defer c.Close()
	if _, ok, err := c.GetAppend(nil, []byte("k")); err != nil || !ok {
		t.Fatalf("first get: %v, %v", ok, err)
	}
	time.Sleep(300 * time.Millisecond)
	const burst = 100
	p := c.Pipeline()
	for i := 0; i < burst; i++ {
		p.Get([]byte("k"))
	}
	replies, err := p.Exec()
	if err != nil || len(replies) != burst {
		t.Fatalf("%d of %d replies after the pause: %v", len(replies), burst, err)
	}
	want := Reply{Line: "END", Values: []Item{{"k", value120}}}
	for i, r := range replies {
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("reply %d = %q, want %q", i, r, want)
		}
	}
}

// stallPeer serves a 120-byte value under "k" and connects a client that
// sends 8 x 65536 `get k` and never reads: the replies fill the socket and
// the server's write blocks. It returns once the server holds the
// connection.
func stallPeer(t *testing.T, srv *Server, addr string) {
	t.Helper()
	if err := srv.store.Set([]byte("k"), value120); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	burst := strings.Repeat("get k\r\n", 65536)
	go func() {
		for i := 0; i < 8; i++ {
			if _, err := io.WriteString(conn, burst); err != nil {
				return // the server gave the connection up
			}
		}
	}()
	deadlineByConnCount(t, srv, 1)
}

// TestWriteTimeoutClosesStalledPeer pins that WriteTimeout alone, without
// Close, ends a connection whose peer never reads its replies.
func TestWriteTimeoutClosesStalledPeer(t *testing.T) {
	srv, addr, err := ServeConfig("127.0.0.1:0", NewHashMapStore(), Config{WriteTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stallPeer(t, srv, addr)
	for end := time.Now().Add(5 * time.Second); srv.Metrics().CurrConnections.Load() != 0; {
		if time.Now().After(end) {
			t.Fatal("the stalled connection was still open 5s later")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseWithPeerThatNeverReads pins that Close does not deadlock on a
// handler blocked writing replies its peer never reads: the drain deadline
// fails the write and the handler returns.
func TestCloseWithPeerThatNeverReads(t *testing.T) {
	srv, addr, err := ServeConfig("127.0.0.1:0", NewHashMapStore(), Config{DrainTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	stallPeer(t, srv, addr)
	// Wait for the handler to block: its written bytes stop growing once
	// the replies fill the socket.
	for last, end := uint64(0), time.Now().Add(5*time.Second); ; {
		time.Sleep(20 * time.Millisecond)
		n := srv.Metrics().BytesWritten.Load()
		if n > 0 && n == last {
			break
		}
		if time.Now().After(end) {
			t.Fatal("the server's writes never blocked on the stalled peer")
		}
		last = n
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 2*time.Second {
		t.Fatalf("Close took %v with a peer that never reads", d)
	}
	if n := srv.Metrics().CurrConnections.Load(); n != 0 {
		t.Fatalf("CurrConnections = %d after Close, want 0", n)
	}
}
