package kvserver

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Client speaks the memcached text protocol to a server; every protocol
// speaker outside the server goes through it. Each command has one request
// encoder and one reply decoder: a synchronous call queues one request,
// flushes and decodes one reply, and a Pipeline queues a burst before its
// flush. A Client is not safe for concurrent use.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader // its size bounds a reply line
	w       *bufio.Writer
	timeout time.Duration // deadline of each exchange; 0 = none
	num     [20]byte      // a set's decimal length
}

// Dial connects to a memcached-protocol server. A timeout > 0 bounds the
// dial and every request/reply exchange after it.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), timeout: timeout}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// arm starts the deadline of an exchange; every request encoder calls it,
// before anything can reach the wire. A failure means the connection is
// closed, which the exchange reports.
func (c *Client) arm() {
	if c.timeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
}

// flushLine flushes the queued request and reads its reply's first line,
// from which the command's decoder takes over.
func (c *Client) flushLine() ([]byte, error) {
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.readLine()
}

// Set stores value under key.
func (c *Client) Set(key, value []byte) error {
	c.encodeSet(key, value)
	line, err := c.flushLine()
	if err == nil && string(line) != "STORED" {
		err = replyErr("set", line)
	}
	return err
}

// GetAppend appends key's value to dst and reports whether key was found.
func (c *Client) GetAppend(dst, key []byte) ([]byte, bool, error) {
	c.encode("get", key)
	line, err := c.flushLine()
	if err != nil {
		return dst, false, err
	}
	dst, n, err := c.readValues(line, dst, nil)
	return dst, n > 0, err
}

// Delete removes key and reports whether it was there.
func (c *Client) Delete(key []byte) (bool, error) {
	c.encode("delete", key)
	line, err := c.flushLine()
	if err == nil && string(line) != "DELETED" && string(line) != "NOT_FOUND" {
		err = replyErr("delete", line)
	}
	return err == nil && string(line) == "DELETED", err
}

// Version returns the server's version string.
func (c *Client) Version() (string, error) {
	c.encode("version")
	line, err := c.flushLine()
	v, ok := bytes.CutPrefix(line, []byte("VERSION "))
	if err == nil && !ok {
		err = replyErr("version", line)
	}
	return string(v), err
}

// Stats runs `stats [args...]` ("shards" asks for the per-shard form) and
// returns its STAT lines as a name → value map.
func (c *Client) Stats(args ...string) (map[string]string, error) {
	c.encode(strings.Join(append([]string{"stats"}, args...), " "))
	line, err := c.flushLine()
	if err != nil {
		return nil, err
	}
	return c.readStats(line)
}

// Pipeline queues a burst of requests on its Client, which must not be used
// otherwise until Exec sends them in one flush and decodes their replies.
type Pipeline struct {
	c *Client
	n int // requests queued since the last Exec
}

// Pipeline starts a burst on c.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Set queues a set of key.
func (p *Pipeline) Set(key, value []byte) { p.n++; p.c.encodeSet(key, value) }

// Get queues one get of every key.
func (p *Pipeline) Get(keys ...[]byte) { p.n++; p.c.encode("get", keys...) }

// Exec flushes the queued requests and returns their replies in request
// order; after an error the replies are incomplete.
func (p *Pipeline) Exec() ([]Reply, error) {
	replies := make([]Reply, p.n)
	p.n = 0
	err := p.c.w.Flush()
	for i := 0; i < len(replies) && err == nil; i++ {
		replies[i], err = p.c.readReply()
	}
	return replies, err
}

// Reply is one decoded reply, whichever command it answers.
type Reply struct {
	// Line is the reply's one line without "\r\n" (STORED, NOT_FOUND, VERSION
	// <v>, SERVER_ERROR <msg>, ...), or END for the replies of get and stats.
	Line   string
	Values []Item            // a get's VALUE blocks, in reply order
	Stats  map[string]string // a stats reply's STAT lines
}

// Item is one VALUE block of a get reply.
type Item struct {
	Key   string
	Value []byte
}

// The request encoders. bufio.Writer errors are sticky and surface at Flush.

func (c *Client) encodeSet(key, value []byte) {
	c.arm()
	c.w.WriteString("set ")
	c.w.Write(key)
	c.w.WriteString(" 0 0 ")
	c.w.Write(strconv.AppendInt(c.num[:0], int64(len(value)), 10))
	c.w.WriteString("\r\n")
	c.w.Write(value)
	c.w.WriteString("\r\n")
}

// encode queues `verb [key...]`: get, delete, version and stats.
func (c *Client) encode(verb string, keys ...[]byte) {
	c.arm()
	c.w.WriteString(verb)
	for _, k := range keys {
		c.w.WriteByte(' ')
		c.w.Write(k)
	}
	c.w.WriteString("\r\n")
}

// The reply decoders. A reply is input from outside the program: anything
// malformed is an error, never a panic.

// readReply decodes the next reply, whose first line picks its decoder. It
// returns io.EOF only if the stream ends before the reply, so a reader can
// decode a stream to its end.
func (c *Client) readReply() (Reply, error) {
	if _, err := c.r.Peek(1); err != nil {
		return Reply{}, err
	}
	line, err := c.readLine()
	switch {
	case err != nil:
		return Reply{}, err
	case string(line) == "END" || bytes.HasPrefix(line, []byte("VALUE ")):
		r := Reply{Line: "END"}
		_, _, err := c.readValues(line, nil, &r.Values)
		return r, err
	case bytes.HasPrefix(line, []byte("STAT ")):
		stats, err := c.readStats(line)
		return Reply{Line: "END", Stats: stats}, err
	}
	return Reply{Line: string(line)}, nil
}

// readValues decodes a get reply from its first line on: VALUE blocks, then
// END. It appends each block's data to dst, records the block in items
// unless items is nil, and returns the number of blocks.
func (c *Client) readValues(line, dst []byte, items *[]Item) ([]byte, int, error) {
	for n := 0; ; n++ {
		if string(line) == "END" {
			return dst, n, nil
		}
		key, size, err := valueHeader(line)
		if err != nil {
			return dst, n, err
		}
		var k string
		if items != nil {
			k = string(key) // before the next read reuses line's buffer
		}
		start := len(dst)
		dst = slices.Grow(dst, size+2)[:start+size+2]
		if _, err := io.ReadFull(c.r, dst[start:]); err != nil {
			return dst[:start], n, fmt.Errorf("kvserver: get: %d-byte data block: %w", size, err)
		}
		if !bytes.HasSuffix(dst, []byte("\r\n")) {
			return dst[:start], n, fmt.Errorf("kvserver: get: %d-byte data block not ended by \\r\\n", size)
		}
		dst = dst[:len(dst)-2]
		if items != nil {
			*items = append(*items, Item{Key: k, Value: dst[start:len(dst):len(dst)]})
		}
		if line, err = c.readLine(); err != nil {
			return dst, n + 1, err
		}
	}
}

// valueHeader parses `VALUE <key> <flags> <bytes>`. The client reads
// <bytes> bytes next, so the length must be all digits and at most
// MaxValueSize.
func valueHeader(line []byte) (key []byte, size int, err error) {
	rest, ok := bytes.CutPrefix(line, []byte("VALUE "))
	key, rest, okKey := bytes.Cut(rest, []byte(" "))
	_, length, okFlags := bytes.Cut(rest, []byte(" "))
	for _, d := range length {
		ok = ok && '0' <= d && d <= '9'
		size = min(size*10+int(d-'0'), MaxValueSize+1)
	}
	if !ok || !okKey || !okFlags || len(key) == 0 || len(length) == 0 || size > MaxValueSize {
		return nil, 0, replyErr("get", line)
	}
	return key, size, nil
}

// readStats decodes a stats reply from its first line on: STAT lines, then END.
func (c *Client) readStats(line []byte) (map[string]string, error) {
	stats := map[string]string{}
	var err error
	for ; string(line) != "END"; line, err = c.readLine() {
		if err != nil {
			return nil, err
		}
		// A value may hold spaces (engine "FPTreeC[4 shards]"): the name ends
		// at the first space and the value is the rest.
		rest, ok := bytes.CutPrefix(line, []byte("STAT "))
		name, val, okName := bytes.Cut(rest, []byte(" "))
		if !ok || !okName {
			return nil, replyErr("stats", line)
		}
		stats[string(name)] = string(val)
	}
	return stats, nil
}

// readLine returns the next reply line without its "\r\n", valid until the
// next read.
func (c *Client) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil { // bufio.ErrBufferFull: longer than the buffer
		return nil, fmt.Errorf("kvserver: reply line: %w", err)
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("kvserver: reply line %q does not end in \\r\\n", line)
	}
	return line[:len(line)-2], nil
}

// replyErr reports a reply line the command does not expect: an error line
// from the server or a malformed reply.
func replyErr(cmd string, line []byte) error {
	return fmt.Errorf("kvserver: %s: unexpected reply %q", cmd, line)
}
