package kvserver

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fptree/internal/obs"
)

// BenchResult reports one mc-benchmark run.
type BenchResult struct {
	Store        string
	SetOps       float64 // SET requests per second (completed ops only)
	GetOps       float64 // GET requests per second (completed ops only)
	SetCompleted uint64  // SET requests that finished successfully
	GetCompleted uint64  // GET requests that finished successfully
	SetLatency   obs.HistogramSnapshot
	GetLatency   obs.HistogramSnapshot
}

// RunMCBenchmark is the in-process equivalent of the paper's mc-benchmark:
// clients connections issue ops SET requests (split over the connections,
// remainder included) followed by ops GET requests, against a server at addr.
func RunMCBenchmark(addr string, clients, ops, valueSize int) (BenchResult, error) {
	return RunMCBenchmarkTimeout(addr, clients, ops, valueSize, 0)
}

// RunMCBenchmarkTimeout is RunMCBenchmark with a per-request I/O deadline on
// every client connection (0 disables deadlines).
func RunMCBenchmarkTimeout(addr string, clients, ops, valueSize int, ioTimeout time.Duration) (BenchResult, error) {
	if clients < 1 {
		clients = 1
	}
	conns := make([]*mcConn, clients)
	for i := range conns {
		c, err := dialMC(addr)
		if err != nil {
			return BenchResult{}, err
		}
		c.timeout = ioTimeout
		conns[i] = c
		defer c.close()
	}
	val := strings.Repeat("v", valueSize)

	// phase spreads ops over the connections (the first ops%clients
	// connections take one extra so nothing is dropped), runs them, and
	// computes the rate from the ops that actually completed — a goroutine
	// that errors mid-phase stops contributing instead of being counted.
	phase := func(hist *obs.Histogram, op func(c *mcConn, i int) error) (float64, uint64, error) {
		var wg sync.WaitGroup
		var completed atomic.Uint64
		errs := make(chan error, clients)
		per, rem := ops/clients, ops%clients
		next := 0
		start := time.Now()
		for ci, c := range conns {
			n := per
			if ci < rem {
				n++
			}
			base := next
			next += n
			wg.Add(1)
			go func(c *mcConn, base, n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					t0 := time.Now()
					if err := op(c, base+i); err != nil {
						errs <- err
						return
					}
					hist.Observe(time.Since(t0))
					completed.Add(1)
				}
			}(c, base, n)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		close(errs)
		err := <-errs // nil if no goroutine failed
		return float64(completed.Load()) / elapsed, completed.Load(), err
	}

	var res BenchResult
	var setHist, getHist obs.Histogram
	rate, done, err := phase(&setHist, func(c *mcConn, i int) error {
		return c.set(fmt.Sprintf("memtier-%08d", i), val)
	})
	if err != nil {
		return BenchResult{}, err
	}
	res.SetOps, res.SetCompleted, res.SetLatency = rate, done, setHist.Snapshot()

	rate, done, err = phase(&getHist, func(c *mcConn, i int) error {
		_, _, err := c.get(fmt.Sprintf("memtier-%08d", i))
		return err
	})
	if err != nil {
		return BenchResult{}, err
	}
	res.GetOps, res.GetCompleted, res.GetLatency = rate, done, getHist.Snapshot()
	return res, nil
}

// FetchServerStats dials addr and returns the server's `stats` output as a
// name → value map.
func FetchServerStats(addr string, timeout time.Duration) (map[string]string, error) {
	return fetchStats(addr, timeout, "stats")
}

// FetchShardStats dials addr and returns the server's `stats shards` output
// (the per-shard verbose form; an unsharded server answers as one shard) as a
// name → value map.
func FetchShardStats(addr string, timeout time.Duration) (map[string]string, error) {
	return fetchStats(addr, timeout, "stats shards")
}

func fetchStats(addr string, timeout time.Duration, cmd string) (map[string]string, error) {
	c, err := dialMC(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	c.timeout = timeout
	return c.statsCmd(cmd)
}

// ShardLens extracts the per-shard key counts (shard<i>_len) from a `stats
// shards` map, index-ordered. It returns nil if the map lacks a shards line.
func ShardLens(stats map[string]string) []uint64 {
	n, err := strconv.Atoi(stats["shards"])
	if err != nil || n < 1 {
		return nil
	}
	lens := make([]uint64, n)
	for i := 0; i < n; i++ {
		lens[i], _ = strconv.ParseUint(stats[fmt.Sprintf("shard%d_len", i)], 10, 64)
	}
	return lens
}

// StatsDelta returns after-minus-before for every stat whose values in both
// maps parse as numbers (uptime, counters, the scm_* lines); non-numeric
// stats (version, engine) and stats absent from either map are dropped.
// Fetch the server's stats before and after a run and diff them to attribute
// SCM traffic and command counts to that run alone.
func StatsDelta(before, after map[string]string) map[string]float64 {
	delta := make(map[string]float64, len(after))
	for k, av := range after {
		bv, ok := before[k]
		if !ok {
			continue
		}
		a, errA := strconv.ParseFloat(av, 64)
		b, errB := strconv.ParseFloat(bv, 64)
		if errA != nil || errB != nil {
			continue
		}
		delta[k] = a - b
	}
	return delta
}

// FormatStats renders a stats map sorted by name, one "name value" per line.
func FormatStats(stats map[string]string) string {
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, stats[k])
	}
	return b.String()
}

// mcConn is a tiny memcached text-protocol client.
type mcConn struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	timeout time.Duration // per-request I/O deadline; 0 = none
}

func dialMC(addr string) (*mcConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &mcConn{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

func (c *mcConn) close() { c.conn.Close() }

// arm sets the I/O deadline for the next request/response exchange.
func (c *mcConn) arm() {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
}

func (c *mcConn) set(key, value string) error {
	c.arm()
	fmt.Fprintf(c.w, "set %s 0 0 %d\r\n%s\r\n", key, len(value), value)
	if err := c.w.Flush(); err != nil {
		return err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return err
	}
	if !strings.HasPrefix(line, "STORED") {
		return fmt.Errorf("set %s: %q", key, line)
	}
	return nil
}

// setNoreply issues a fire-and-forget set; the server sends no response, so
// consecutive calls pipeline without a round-trip each.
func (c *mcConn) setNoreply(key, value string) error {
	c.arm()
	fmt.Fprintf(c.w, "set %s 0 0 %d noreply\r\n%s\r\n", key, len(value), value)
	return c.w.Flush()
}

func (c *mcConn) get(key string) (string, bool, error) {
	c.arm()
	fmt.Fprintf(c.w, "get %s\r\n", key)
	if err := c.w.Flush(); err != nil {
		return "", false, err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", false, err
	}
	if strings.HasPrefix(line, "END") {
		return "", false, nil
	}
	if !strings.HasPrefix(line, "VALUE ") {
		return "", false, fmt.Errorf("get %s: %q", key, line)
	}
	var k string
	var flags, n int
	if _, err := fmt.Sscanf(line, "VALUE %s %d %d", &k, &flags, &n); err != nil {
		return "", false, err
	}
	data := make([]byte, n+2)
	if _, err := io.ReadFull(c.r, data); err != nil {
		return "", false, err
	}
	end, err := c.r.ReadString('\n')
	if err != nil {
		return "", false, err
	}
	if !strings.HasPrefix(end, "END") {
		return "", false, fmt.Errorf("get %s: missing END: %q", key, end)
	}
	return string(data[:n]), true, nil
}

func (c *mcConn) delete(key string) (bool, error) {
	c.arm()
	fmt.Fprintf(c.w, "delete %s\r\n", key)
	if err := c.w.Flush(); err != nil {
		return false, err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return false, err
	}
	switch {
	case strings.HasPrefix(line, "DELETED"):
		return true, nil
	case strings.HasPrefix(line, "NOT_FOUND"):
		return false, nil
	}
	return false, fmt.Errorf("delete %s: %q", key, line)
}

func (c *mcConn) version() (string, error) {
	c.arm()
	fmt.Fprintf(c.w, "version\r\n")
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(line, "VERSION ") {
		return "", fmt.Errorf("version: %q", line)
	}
	return strings.TrimSpace(strings.TrimPrefix(line, "VERSION ")), nil
}

// stats issues the memcached stats command and returns the STAT lines as a
// name → value map.
// statsCmd issues a stats-family command ("stats", "stats shards") and
// returns the STAT lines as a name → value map.
func (c *mcConn) statsCmd(cmd string) (map[string]string, error) {
	c.arm()
	fmt.Fprintf(c.w, "%s\r\n", cmd)
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	out := map[string]string{}
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimSpace(line)
		if line == "END" {
			return out, nil
		}
		if line == "ERROR" {
			return nil, fmt.Errorf("%s: server answered ERROR", cmd)
		}
		// Values may contain spaces (e.g. engine "FPTreeC[4 shards]"), so
		// split into exactly three fields and keep the rest verbatim.
		parts := strings.SplitN(line, " ", 3)
		if len(parts) != 3 || parts[0] != "STAT" {
			return nil, fmt.Errorf("stats: bad line %q", line)
		}
		out[parts[1]] = parts[2]
	}
}
