package kvserver

import (
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
	// quit closes the connection after the queued replies flush, so EOF
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

// TestPipelineDeepBurst overflows the reply queue depth (pipelineDepth) with
// a burst of small gets sent before the client reads anything: the writer
// must drain under back-pressure without deadlock, and every reply must
// arrive in order.
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

	const burst = 4 * pipelineDepth
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
