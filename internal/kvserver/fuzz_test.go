package kvserver

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"fptree/internal/scm"
)

// FuzzProtocol sends arbitrary bytes to a live server over the hash map and
// over the concurrent FPTree, closes the write half, and decodes each reply
// stream to its end with the client's decoder. Every reply must decode, and
// the two engines must answer alike: replies compare by line and VALUE
// blocks, stats replies by kind only (their counters differ by design). Both
// servers must then still set and get on a fresh connection, hold the same
// number of keys, and pass their invariant checks.
func FuzzProtocol(f *testing.F) {
	script, _ := pipelineScript()
	sets, del := noreplyScript()
	for _, seed := range []string{
		script,
		sets + del,
		badChunkSet,
		partialSet,
		"stats\r\nstats shards\r\nget a b\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		// 4 KiB bounds the keys the 1 MiB arena holds, and keeps every
		// reply line (a key is sent twice to be echoed) in the client's buffer.
		if len(in) > 4<<10 {
			return
		}
		tree, err := NewFPTreeCStore(scm.NewPool(1<<20, scm.LatencyConfig{CacheBytes: -1}))
		if err != nil {
			t.Fatal(err)
		}
		var streams [2][]string
		for i, st := range []Store{NewHashMapStore(), tree} {
			streams[i] = serveFuzzInput(t, st, in)
		}
		if hash, fptree := streams[0], streams[1]; !slices.Equal(hash, fptree) {
			i := 0
			for i < min(len(hash), len(fptree)) && hash[i] == fptree[i] {
				i++
			}
			t.Fatalf("the engines answer alike up to reply %d, then\nHashMap: %q\nFPTreeC: %q", i, hash[i:], fptree[i:])
		}
	})
}

// serveFuzzInput serves st, writes in on one connection and returns every
// reply decoded from it, then checks that st still serves and is intact.
func serveFuzzInput(t *testing.T, st Store, in []byte) []string {
	srv, addr, err := Serve("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	// Write while reading: a long input's replies may fill the socket
	// buffers before the server has read all of it. A write error means the
	// server closed the connection (quit), which the read side sees too.
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		c.conn.Write(in)
		c.conn.(*net.TCPConn).CloseWrite()
	}()
	var replies []string
	for {
		r, err := c.readReply()
		// quit with input still unread closes by reset; the replies before it
		// were read in full.
		if err == io.EOF || errors.Is(err, syscall.ECONNRESET) {
			break
		}
		if err != nil {
			t.Fatalf("%s: reply %d does not decode: %v", st.Name(), len(replies), err)
		}
		if r.Stats != nil {
			replies = append(replies, "STATS")
		} else {
			replies = append(replies, fmt.Sprintf("%s %q", r.Line, r.Values))
		}
	}
	<-wrote

	fresh, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	key := []byte(strings.Repeat("z", 20))
	if err := fresh.Set(key, []byte("alive")); err != nil {
		t.Fatalf("%s: set on a fresh connection: %v", st.Name(), err)
	}
	if v, ok, err := fresh.GetAppend(nil, key); err != nil || !ok || string(v) != "alive" {
		t.Fatalf("%s: get on a fresh connection = %q,%v,%v", st.Name(), v, ok, err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", st.Name(), err)
	}
	replies = append(replies, fmt.Sprintf("%d keys", st.Len()))
	return replies
}
