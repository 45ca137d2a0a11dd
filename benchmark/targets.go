package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"fptree/internal/core"
	"fptree/internal/kvserver"
)

// target is one boundary of the system a client can drive: the loopback
// server, the router, one store, or a tree. The same seeded op stream is
// played against any of them, which is what makes the outside-in waterfall
// (B3 − B2 − B1 − B0) a subtraction of like with like.
type target interface {
	get(key []byte) (val []byte, found bool, err error)
	// put stores val under key; fresh says the key is known to be absent
	// (SET-new / Insert) as opposed to an overwrite (SET / Update).
	put(key, val []byte, fresh bool) error
	del(key []byte) (found bool, err error)
}

// ranger is the range-read surface of the fixed-key tree.
type ranger interface {
	scanN(from uint64, n int) []core.KV
	iterN(from uint64, n int, out []core.KV) []core.KV
}

var errNotFound = errors.New("benchmark: update of an absent key")

// opTimeout fails an op that has not completed in time (the kv-* clients arm
// it as a connection deadline; library calls cannot be interrupted).
const opTimeout = 5 * time.Second

// --- B3: memcached text protocol over loopback TCP ---------------------------

type wireTarget struct {
	conn net.Conn
	r    *bufio.Reader
	req  []byte
	val  []byte
	ops  int
}

func dialWire(addr string) (*wireTarget, error) {
	conn, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &wireTarget{conn: conn, r: bufio.NewReaderSize(conn, 4096), req: make([]byte, 0, 512), val: make([]byte, 0, 256)}, nil
}

func (w *wireTarget) close() { w.conn.Close() }

// send writes the request and re-arms the deadline every 256 ops, so a hung
// server fails the op within opTimeout without a timer update per request.
func (w *wireTarget) send() error {
	if w.ops&255 == 0 {
		if err := w.conn.SetDeadline(time.Now().Add(opTimeout + time.Second)); err != nil {
			return err
		}
	}
	w.ops++
	_, err := w.conn.Write(w.req)
	return err
}

func (w *wireTarget) get(key []byte) ([]byte, bool, error) {
	w.req = append(append(append(w.req[:0], "get "...), key...), '\r', '\n')
	if err := w.send(); err != nil {
		return nil, false, err
	}
	line, err := w.r.ReadSlice('\n')
	if err != nil {
		return nil, false, err
	}
	if bytes.Equal(line, []byte("END\r\n")) {
		return nil, false, nil
	}
	// VALUE <key> <flags> <bytes>\r\n
	if !bytes.HasPrefix(line, []byte("VALUE ")) || len(line) < 8 {
		return nil, false, fmt.Errorf("get: unexpected reply %q", line)
	}
	n := 0
	for _, d := range line[bytes.LastIndexByte(line, ' ')+1 : len(line)-2] {
		if d < '0' || d > '9' || n > kvserver.MaxValueSize {
			return nil, false, fmt.Errorf("get: bad length in %q", line)
		}
		n = n*10 + int(d-'0')
	}
	if n > kvserver.MaxValueSize {
		return nil, false, fmt.Errorf("get: bad length in %q", line)
	}
	w.val = w.val[:n+2]
	if _, err := io.ReadFull(w.r, w.val); err != nil {
		return nil, false, err
	}
	if line, err = w.r.ReadSlice('\n'); err != nil {
		return nil, false, err
	}
	if !bytes.Equal(line, []byte("END\r\n")) {
		return nil, false, fmt.Errorf("get: missing END, got %q", line)
	}
	return w.val[:n], true, nil
}

func (w *wireTarget) put(key, val []byte, _ bool) error {
	w.req = append(append(w.req[:0], "set "...), key...)
	w.req = append(w.req, " 0 0 "...)
	w.req = strconv.AppendInt(w.req, int64(len(val)), 10)
	w.req = append(append(append(w.req, '\r', '\n'), val...), '\r', '\n')
	if err := w.send(); err != nil {
		return err
	}
	line, err := w.r.ReadSlice('\n')
	if err != nil {
		return err
	}
	if !bytes.Equal(line, []byte("STORED\r\n")) {
		return fmt.Errorf("set: unexpected reply %q", line)
	}
	return nil
}

func (w *wireTarget) del(key []byte) (bool, error) {
	w.req = append(append(append(w.req[:0], "delete "...), key...), '\r', '\n')
	if err := w.send(); err != nil {
		return false, err
	}
	line, err := w.r.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	switch {
	case bytes.Equal(line, []byte("DELETED\r\n")):
		return true, nil
	case bytes.Equal(line, []byte("NOT_FOUND\r\n")):
		return false, nil
	}
	return false, fmt.Errorf("delete: unexpected reply %q", line)
}

// --- B2 / B1: a kvserver.Store (the router, or one shard's store) -----------

type storeTarget struct{ st kvserver.Store }

func (s *storeTarget) get(key []byte) ([]byte, bool, error) {
	v, ok := s.st.Get(key)
	return v, ok, nil
}
func (s *storeTarget) put(key, val []byte, _ bool) error { return s.st.Set(key, val) }
func (s *storeTarget) del(key []byte) (bool, error)      { return s.st.Delete(key) }

// --- B0 under a store: the CVarTree with kvserver's value-slot framing -------

// slotSize mirrors kvserver's inline value slot: a 2-byte length prefix plus
// MaxValueSize bytes. slotTreeTarget makes the calls the store adapter makes
// (Upsert / Find / Delete on a 122-byte slot) without the adapter, so
// B1 − B0 is the adapter alone.
const slotSize = kvserver.MaxValueSize + 2

type slotTreeTarget struct {
	t    *core.CVarTree
	slot [slotSize]byte
}

func (s *slotTreeTarget) get(key []byte) ([]byte, bool, error) {
	v, ok := s.t.Find(key)
	if !ok || len(v) < 2 {
		return nil, false, nil
	}
	n := int(binary.LittleEndian.Uint16(v))
	if n > len(v)-2 {
		n = len(v) - 2
	}
	return v[2 : 2+n], true, nil
}

func (s *slotTreeTarget) put(key, val []byte, _ bool) error {
	binary.LittleEndian.PutUint16(s.slot[:], uint16(len(val)))
	copy(s.slot[2:], val)
	return s.t.Upsert(key, s.slot[:])
}
func (s *slotTreeTarget) del(key []byte) (bool, error) { return s.t.Delete(key) }

// --- library level: the concurrent var-key and fixed-key trees ---------------

type varTreeTarget struct{ t *core.CVarTree }

func (v varTreeTarget) get(key []byte) ([]byte, bool, error) {
	val, ok := v.t.Find(key)
	return val, ok, nil
}

func (v varTreeTarget) put(key, val []byte, fresh bool) error {
	if fresh {
		return v.t.Insert(key, val)
	}
	ok, err := v.t.Update(key, val)
	if err == nil && !ok {
		err = errNotFound
	}
	return err
}
func (v varTreeTarget) del(key []byte) (bool, error) { return v.t.Delete(key) }

// fixedTreeTarget carries 8-byte big-endian keys and little-endian values
// over to the uint64 API.
type fixedTreeTarget struct {
	t   *core.CTree
	out [8]byte
}

func (f *fixedTreeTarget) get(key []byte) ([]byte, bool, error) {
	v, ok := f.t.Find(binary.BigEndian.Uint64(key))
	if !ok {
		return nil, false, nil
	}
	binary.LittleEndian.PutUint64(f.out[:], v)
	return f.out[:], true, nil
}

func (f *fixedTreeTarget) put(key, val []byte, fresh bool) error {
	k, v := binary.BigEndian.Uint64(key), binary.LittleEndian.Uint64(val)
	if fresh {
		return f.t.Insert(k, v)
	}
	ok, err := f.t.Update(k, v)
	if err == nil && !ok {
		err = errNotFound
	}
	return err
}

func (f *fixedTreeTarget) del(key []byte) (bool, error) {
	return f.t.Delete(binary.BigEndian.Uint64(key))
}

func (f *fixedTreeTarget) scanN(from uint64, n int) []core.KV { return f.t.ScanN(from, n) }

func (f *fixedTreeTarget) iterN(from uint64, n int, out []core.KV) []core.KV {
	it := f.t.Iterator(from, 0)
	for out = out[:0]; it.Valid() && len(out) < n; it.Next() {
		out = append(out, core.KV{Key: it.Key(), Value: it.Value()})
	}
	it.Close()
	return out
}
