// Package kvserver is the memcached integration of Section 6.4: a TCP
// key-value cache speaking a subset of the memcached text protocol
// (get/set/delete/stats/version), whose internal hash table is replaced by
// the persistent trees under test. As in the paper, full string keys are
// stored in the tree (not their hashes), and the concurrent trees service
// requests in parallel while the single-threaded trees serialize behind a
// global lock.
package kvserver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fptree/internal/obs"
	"fptree/internal/obs/trace"
	"fptree/internal/scm"
)

// Version is reported by the memcached `version` command.
const Version = "fptree-memkv/1.1"

// Config tunes the server's lifecycle and resource limits. The zero value
// means: no per-command deadlines, unlimited connections, 500ms drain on
// Close, no SCM counters in `stats`.
type Config struct {
	// ReadTimeout bounds how long the server waits for the next command (and
	// its payload) on a connection; expiry closes the connection. 0 disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds each write of replies to the socket; expiry closes
	// the connection. 0 disables.
	WriteTimeout time.Duration
	// MaxConns caps simultaneous connections; excess clients receive
	// "SERVER_ERROR max connections reached" and are disconnected. 0 means
	// unlimited.
	MaxConns int
	// DrainTimeout is the grace period Close gives in-flight commands before
	// force-closing their connections. 0 means 500ms.
	DrainTimeout time.Duration
	// Pools lists the SCM pool behind each shard of the store, in shard order
	// (one pool for an unsharded store). `stats` reports their scm_* counters
	// as fleet totals, `stats shards` per shard, and /metrics exposes both.
	Pools []*scm.Pool
	// Events, when set, receives noteworthy server events (rejected
	// connections, store errors, slow requests) for the /debug/events
	// endpoint.
	Events *obs.EventRing
	// Tracer, when set, samples request spans (parse/store/reply phases)
	// and is handed down to the storage engine, so one sampled request shows
	// both the server-side and tree-side attribution. Server spans carry
	// time only; the engine spans own the flush/fence attribution (no double
	// counting).
	Tracer *trace.Tracer
	// SlowOpThreshold, when >0, counts and event-logs every request that
	// takes at least this long — always on, independent of trace sampling,
	// because the server already times each request.
	SlowOpThreshold time.Duration
}

const defaultDrainTimeout = 500 * time.Millisecond

// Server is a memcached-protocol server with connection tracking, graceful
// shutdown and a metrics layer surfaced through the `stats` command.
type Server struct {
	store   Store
	cfg     Config
	ln      net.Listener
	metrics Metrics
	// pools is the registry behind the scm_* lines of `stats` and `stats
	// shards`: cfg.Pools registered by the same fleet rule as on /metrics, so
	// the protocol and the endpoint cannot disagree.
	pools   *obs.Registry
	wg      sync.WaitGroup
	closing atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// Serve starts listening on addr (e.g. "127.0.0.1:0") with default Config
// and returns the bound address.
func Serve(addr string, store Store) (*Server, string, error) {
	return ServeConfig(addr, store, Config{})
}

// ServeConfig starts listening on addr with the given Config and returns the
// bound address.
func ServeConfig(addr string, store Store, cfg Config) (*Server, string, error) {
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = defaultDrainTimeout
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	s := &Server{store: store, cfg: cfg, ln: ln, pools: obs.NewRegistry(), conns: map[net.Conn]struct{}{}}
	s.metrics.start = time.Now()
	scm.RegisterPoolsMetrics(s.pools, "scm", cfg.Pools)
	if cfg.Tracer != nil {
		store.SetTracer(cfg.Tracer)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, ln.Addr().String(), nil
}

// Metrics exposes the server's live counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// RegisterMetrics exposes the server's counters and histograms on reg
// ("memkv" prefix), along with the SCM pool counters ("scm") of the
// configured pools and the storage engine's own counters ("fptree"/"htm").
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	s.metrics.RegisterMetrics(reg, "memkv")
	scm.RegisterPoolsMetrics(reg, "scm", s.cfg.Pools)
	s.store.RegisterMetrics(reg)
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.RegisterMetrics(reg, "trace")
	}
}

// event records a noteworthy occurrence in the configured ring, if any.
func (s *Server) event(kind, format string, args ...interface{}) {
	if s.cfg.Events != nil {
		s.cfg.Events.Record(kind, format, args...)
	}
}

// Close stops the listener and shuts down every live connection: handlers
// get DrainTimeout to finish their current command (idle connections are
// released by the same deadline), after which remaining connections are
// force-closed. It is safe to call multiple times.
func (s *Server) Close() error {
	err := s.ln.Close()
	if s.closing.Swap(true) {
		s.wg.Wait()
		return err
	}
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	s.mu.Lock()
	for c := range s.conns {
		c.SetDeadline(deadline)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Until(deadline) + s.cfg.DrainTimeout):
		// A handler extended its own deadline past the drain window (or is
		// blocked writing to a dead peer): pull the plug.
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// DumpStats writes the current stats (the same lines the `stats` protocol
// command reports, newline-terminated) to w.
func (s *Server) DumpStats(w io.Writer) {
	s.writeStats(w, "\n")
	fmt.Fprintf(w, "END\n")
}

func (s *Server) writeStats(w io.Writer, eol string) {
	fmt.Fprintf(w, "STAT version %s%s", Version, eol)
	fmt.Fprintf(w, "STAT engine %s%s", s.store.Name(), eol)
	fmt.Fprintf(w, "STAT shards %d%s", s.store.NumShards(), eol)
	s.metrics.writeTo(w, eol)
	if len(s.cfg.Pools) > 0 {
		// One scm_* block whatever the shard count: the fleet totals
		// (`stats shards` breaks them out per shard).
		writePoolStats(w, s.pools.Snapshot(), "", "", eol)
	}
}

// writeShardStats renders the `stats shards` per-shard lines; an unsharded
// store answers as a fleet of one.
func (s *Server) writeShardStats(w io.Writer, eol string) {
	n := s.store.NumShards()
	fmt.Fprintf(w, "STAT shards %d%s", n, eol)
	snap := s.pools.Snapshot()
	for i := 0; i < n; i++ {
		sh := s.store.Shard(i)
		pfx := fmt.Sprintf("shard%d_", i)
		fmt.Fprintf(w, "STAT %sengine %s%s", pfx, sh.Name(), eol)
		fmt.Fprintf(w, "STAT %slen %d%s", pfx, sh.Len(), eol)
		if i < len(s.cfg.Pools) {
			writePoolStats(w, snap, pfx, obs.ShardLabel(i), eol)
		}
	}
}

// writePoolStats renders the scm_* STAT lines from a snapshot of s.pools:
// the capacity, then one line per counter of scm's own table. shard picks a
// shard's series; "" picks the fleet totals.
func writePoolStats(w io.Writer, snap obs.Snapshot, pfx string, shard obs.Labels, eol string) {
	stat := func(name, series string) {
		fmt.Fprintf(w, "STAT %sscm_%s %d%s", pfx, name, uint64(snap[obs.Series("scm_"+series, shard)]), eol)
	}
	stat("pool_bytes", "pool_size_bytes")
	for _, name := range scm.StatNames() {
		stat(name, name+"_total")
	}
}

// track registers a connection; it reports (accepted, atCapacity).
func (s *Server) track(c net.Conn) (bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		return false, false
	}
	if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
		return false, true
	}
	s.conns[c] = struct{}{}
	return true, false
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.metrics.TotalConnections.Add(1)
		ok, full := s.track(conn)
		if !ok {
			if full {
				s.metrics.RejectedConnections.Add(1)
				s.event("conn", "rejected %s: max connections reached", conn.RemoteAddr())
				conn.SetWriteDeadline(time.Now().Add(time.Second))
				io.WriteString(conn, "SERVER_ERROR max connections reached\r\n")
			}
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// countingReader is the io.Reader beneath a connection's bufio.Reader. Before
// every read from the socket it flushes the connection's replies, so the
// replies of every command the bufio.Reader already held leave in one write,
// one write per readable burst, and no reply waits while the connection waits
// for input. A failed flush fails the read, which ends the connection. Both
// halves meter the raw bytes moving through the connection.
type countingReader struct {
	s     *Server
	conn  net.Conn
	flush *bufio.Writer
}

func (c countingReader) Read(p []byte) (int, error) {
	if err := c.flush.Flush(); err != nil {
		return 0, err
	}
	n, err := c.conn.Read(p)
	c.s.metrics.BytesRead.Add(uint64(n))
	return n, err
}

// countingWriter is the io.Writer beneath a connection's bufio.Writer. It
// arms WriteTimeout before every write that reaches the socket, whether the
// reader's flush or a buffer filled mid-burst started it.
type countingWriter struct {
	s    *Server
	conn net.Conn
}

func (c countingWriter) Write(p []byte) (int, error) {
	if c.s.cfg.WriteTimeout > 0 && !c.s.closing.Load() {
		c.conn.SetWriteDeadline(time.Now().Add(c.s.cfg.WriteTimeout))
	}
	n, err := c.conn.Write(p)
	c.s.metrics.BytesWritten.Add(uint64(n))
	return n, err
}

// handle runs a connection on one goroutine: it reads a command, executes it
// and writes its reply into w, which countingReader flushes before the next
// read from the socket. Replies therefore leave in command order.
func (s *Server) handle(conn net.Conn) {
	m := &s.metrics
	w := bufio.NewWriter(countingWriter{s, conn})
	r := bufio.NewReader(countingReader{s, conn, w})
	defer func() {
		w.Flush() // the replies before quit or a lost frame
		conn.Close()
		s.untrack(conn)
		m.CurrConnections.Add(-1)
	}()
	m.CurrConnections.Add(1)
	for {
		if s.closing.Load() {
			return
		}
		if s.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		start := time.Now()
		switch fields[0] {
		case "set":
			sp := s.cfg.Tracer.Start(trace.OpReqSet)
			keep := s.cmdSet(sp, fields, r, w, start)
			sp.Finish()
			s.noteSlow("set", fields, start)
			if !keep {
				return
			}
		case "get", "gets":
			sp := s.cfg.Tracer.Start(trace.OpReqGet)
			s.cmdGet(sp, fields, w, start)
			sp.Finish()
			s.noteSlow("get", fields, start)
		case "delete":
			sp := s.cfg.Tracer.Start(trace.OpReqDelete)
			s.cmdDelete(sp, fields, w, start)
			sp.Finish()
			s.noteSlow("delete", fields, start)
		case "stats":
			m.CmdStats.Add(1)
			if len(fields) == 2 && fields[1] == "shards" {
				s.writeShardStats(w, "\r\n")
			} else {
				s.writeStats(w, "\r\n")
			}
			w.WriteString("END\r\n")
		case "version":
			m.CmdVersion.Add(1)
			w.WriteString("VERSION " + Version + "\r\n")
		case "quit":
			return
		default:
			m.ProtocolErrors.Add(1)
			w.WriteString("ERROR\r\n")
		}
	}
}

// noteSlow counts and event-logs a request that crossed SlowOpThreshold.
// Unlike trace sampling this sees every request: the check rides on the
// per-request timing the latency histograms already pay for, so slow
// outliers surface even with tracing disabled.
func (s *Server) noteSlow(verb string, fields []string, start time.Time) {
	th := s.cfg.SlowOpThreshold
	if th <= 0 {
		return
	}
	d := time.Since(start)
	if d < th {
		return
	}
	s.metrics.SlowOps.Add(1)
	key := ""
	if len(fields) > 1 {
		key = fields[1]
	}
	s.event("slow", "%s %q took %s (threshold %s)", verb, key, d, th)
}

// cmdSet handles one `set <key> <flags> <exptime> <bytes> [noreply]`
// command, writing its reply to w; it reports false when the payload could
// not be read, so framing is lost. sp is nil unless this request was sampled.
func (s *Server) cmdSet(sp *trace.Span, fields []string, r *bufio.Reader, w *bufio.Writer, start time.Time) bool {
	sp.Enter(trace.PhaseParse)
	m := &s.metrics
	noreply := len(fields) == 6 && fields[5] == "noreply"
	if len(fields) < 5 || len(fields) > 6 || (len(fields) == 6 && !noreply) {
		m.ProtocolErrors.Add(1)
		w.WriteString("CLIENT_ERROR bad command line format\r\n")
		return true
	}
	n, err := strconv.Atoi(fields[4])
	if err != nil || n < 0 {
		// The payload length is unknowable; the stream cannot be
		// resynchronized. Report and keep reading (as memcached does).
		m.ProtocolErrors.Add(1)
		w.WriteString("CLIENT_ERROR bad command line format\r\n")
		return true
	}
	if n > MaxValueSize {
		// Consume the declared payload so framing stays intact, then
		// reject. Oversize is a client error, reported even on noreply.
		if _, err := io.CopyN(io.Discard, r, int64(n)+2); err != nil {
			return false
		}
		m.StoreErrors.Add(1)
		w.WriteString("SERVER_ERROR object too large for cache\r\n")
		return true
	}
	data := make([]byte, n+2) // payload + trailing \r\n
	if _, err := io.ReadFull(r, data); err != nil {
		return false
	}
	if data[n] != '\r' || data[n+1] != '\n' {
		// Corrupt framing is reported even under noreply: the
		// connection is already suspect and silence would hide it.
		m.ProtocolErrors.Add(1)
		w.WriteString("CLIENT_ERROR bad data chunk\r\n")
		return true
	}
	m.CmdSet.Add(1)
	sp.Enter(trace.PhaseStore)
	err = s.store.Set([]byte(fields[1]), data[:n])
	m.SetLatency.Observe(time.Since(start))
	sp.Enter(trace.PhaseReply)
	if err != nil {
		m.StoreErrors.Add(1)
		s.event("store", "set %q: %v", fields[1], err)
	}
	switch {
	case noreply:
	case errors.Is(err, ErrValueTooLarge):
		w.WriteString("SERVER_ERROR object too large for cache\r\n")
	case err != nil:
		fmt.Fprintf(w, "SERVER_ERROR %v\r\n", err)
	default:
		w.WriteString("STORED\r\n")
	}
	return true
}

// cmdGet handles one `get <key>...` command, writing its VALUE blocks and
// END to w.
func (s *Server) cmdGet(sp *trace.Span, fields []string, w *bufio.Writer, start time.Time) {
	sp.Enter(trace.PhaseParse)
	m := &s.metrics
	if len(fields) < 2 {
		m.ProtocolErrors.Add(1)
		w.WriteString("ERROR\r\n")
		return
	}
	sp.Enter(trace.PhaseStore)
	for _, key := range fields[1:] {
		m.CmdGet.Add(1)
		if v, ok := s.store.Get([]byte(key)); ok {
			m.GetHits.Add(1)
			fmt.Fprintf(w, "VALUE %s 0 %d\r\n", key, len(v))
			w.Write(v)
			w.WriteString("\r\n")
		} else {
			m.GetMisses.Add(1)
		}
	}
	sp.Enter(trace.PhaseReply)
	w.WriteString("END\r\n")
	m.GetLatency.Observe(time.Since(start))
}

// cmdDelete handles one `delete <key> [noreply]` command, writing its reply
// to w.
func (s *Server) cmdDelete(sp *trace.Span, fields []string, w *bufio.Writer, start time.Time) {
	sp.Enter(trace.PhaseParse)
	m := &s.metrics
	noreply := len(fields) == 3 && fields[2] == "noreply"
	if len(fields) < 2 || len(fields) > 3 || (len(fields) == 3 && !noreply) {
		m.ProtocolErrors.Add(1)
		w.WriteString("CLIENT_ERROR bad command line format\r\n")
		return
	}
	m.CmdDelete.Add(1)
	sp.Enter(trace.PhaseStore)
	found, err := s.store.Delete([]byte(fields[1]))
	m.DeleteLatency.Observe(time.Since(start))
	sp.Enter(trace.PhaseReply)
	if err != nil {
		m.StoreErrors.Add(1)
		s.event("store", "delete %q: %v", fields[1], err)
	} else if found {
		m.DeleteHits.Add(1)
	} else {
		m.DeleteMisses.Add(1)
	}
	switch {
	case noreply:
	case err != nil:
		fmt.Fprintf(w, "SERVER_ERROR %v\r\n", err)
	case found:
		w.WriteString("DELETED\r\n")
	default:
		w.WriteString("NOT_FOUND\r\n")
	}
}
