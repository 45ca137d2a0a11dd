package kvserver

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fakeServer accepts one connection, answers its first request with reply,
// raw, and holds the connection open until the client closes it: a client
// that waits for more than the reply hangs until its deadline.
func fakeServer(t *testing.T, reply string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { ln.Close(); <-done })
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := conn.Read(make([]byte, 512)); err == nil {
			io.WriteString(conn, reply)
			conn.Read(make([]byte, 1))
		}
	}()
	return ln.Addr().String()
}

// TestClientRejectsBadReplies: a reply is input from outside the program. A
// VALUE length that is not all digits or exceeds MaxValueSize, a data block
// that does not end where its length says, and a reply line no command
// expects are errors — never a slice panic, a huge allocation or a hang.
func TestClientRejectsBadReplies(t *testing.T) {
	over := strings.Repeat("x", MaxValueSize+1)
	for _, reply := range []string{
		"VALUE k 0 -1\r\nxEND\r\n",
		"VALUE k 0 99999999999\r\n",
		"VALUE k 0 121\r\n" + over + "\r\nEND\r\n",
		"VALUE k 0 1\r\nxyz\r\nEND\r\n",
		"VALUE k 0\r\n",
		"VALUE  0 1\r\nx\r\nEND\r\n",
		"STORED\r\n",
		"HELLO\r\n",
		"END\n",
	} {
		c, err := Dial(fakeServer(t, reply), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok, err := c.GetAppend(nil, []byte("k")); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("reply %q: get = %q,%v,%v, want the reply refused", reply, v, ok, err)
		}
		c.Close()
	}
}

// TestClientZeroAlloc pins that Set and GetAppend into a reused dst allocate
// nothing against a live server. The server shares the process and its
// allocations count too, so the same requests are also written raw (the
// client's own encoding, captured once) with each reply read whole by its
// known length, and the client must add nothing to that.
func TestClientZeroAlloc(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial(t, addr)
	defer c.Close()
	key, val := []byte("user000000000042"), bytes.Repeat([]byte("v"), 32)
	if err := c.Set(key, val); err != nil {
		t.Fatal(err)
	}

	enc := &Client{}
	capture := func(encode func()) []byte {
		var b bytes.Buffer
		enc.w = bufio.NewWriter(&b)
		encode()
		enc.w.Flush()
		return b.Bytes()
	}
	setReq := capture(func() { enc.encodeSet(key, val) })
	getReq := capture(func() { enc.encode("get", key) })
	rc := dial(t, addr)
	defer rc.Close()
	raw := rc.conn
	reply := make([]byte, 256)
	roundTrip := func(req []byte, replyLen int) {
		if _, err := raw.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(raw, reply[:replyLen]); err != nil {
			t.Fatal(err)
		}
	}
	setReplyLen := len("STORED\r\n")
	getReplyLen := len("VALUE "+string(key)+" 0 32\r\n") + len(val) + len("\r\nEND\r\n")

	dst := make([]byte, 0, 64)
	for _, op := range []struct {
		name   string
		client func()
		raw    func()
	}{
		{"Set", func() {
			if err := c.Set(key, val); err != nil {
				t.Fatal(err)
			}
		}, func() { roundTrip(setReq, setReplyLen) }},
		{"GetAppend", func() {
			var ok bool
			if dst, ok, err = c.GetAppend(dst[:0], key); err != nil || !ok || !bytes.Equal(dst, val) {
				t.Fatalf("get = %q,%v,%v", dst, ok, err)
			}
		}, func() { roundTrip(getReq, getReplyLen) }},
	} {
		server, got := allocsPerRun(op.raw), allocsPerRun(op.client)
		if got-server >= 0.5 {
			t.Errorf("%s: %.2f allocs/op through the client, %.2f for the raw request: the client allocates", op.name, got, server)
		}
		t.Logf("%s: %.2f allocs/op through the client, %.2f for the raw request", op.name, got, server)
	}
}

// allocsPerRun is testing.AllocsPerRun without its rounding down: under
// -race, sync.Pool drops items at random, so the server's share is
// fractional and two rounded counts can differ by one with the client adding
// nothing.
func allocsPerRun(f func()) float64 {
	const runs = 1000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.Mallocs
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs-before) / runs
}
