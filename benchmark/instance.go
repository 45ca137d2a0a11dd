package main

import (
	"errors"
	"fmt"
	"time"

	"fptree/internal/core"
	"fptree/internal/htm"
	"fptree/internal/kvserver"
	"fptree/internal/obs"
	"fptree/internal/obs/trace"
	"fptree/internal/scm"
)

// The emulated medium every workload runs on: 300 ns per SCM cache miss,
// 300 ns per line flush, behind the emulator's default 4 MiB simulated cache.
const (
	scmReadLatency  = 300 * time.Nanosecond
	scmWriteLatency = 300 * time.Nanosecond
)

type engineKind int

const (
	engFixed engineKind = iota // core.CTree, 8-byte keys and values
	engVar                     // core.CVarTree
	engStore                   // kvserver FPTreeC store(s), sharded when shards > 1
)

// spec is the static description of a workload's system under test.
type spec struct {
	engine    engineKind
	cfg       core.Config // engFixed / engVar
	shards    int         // engStore: one pool and one store per shard
	served    bool        // engStore: clients go through the loopback server
	adaptive  bool        // attach the default htm.AdaptiveController
	poolBytes int64       // per pool
	keys      int         // preloaded keys, all clients together
	sh        shape
}

// instance is one built system: pools, the engine on them, and for the served
// workloads the server and its client connections.
type instance struct {
	sp    spec
	e     *env
	pools []*scm.Pool
	reg   *obs.Registry

	ctree *core.CTree
	vtree *core.CVarTree
	store kvserver.Store // the router when sharded
	srv   *kvserver.Server
	wires []*wireTarget
	// The traced pass runs a second server over the same store whose Config
	// carries the tracer, so untraced and traced slices can alternate.
	tsrv   *kvserver.Server
	twires []*wireTarget

	tracer *trace.Tracer // re-attached to every engine open puts on the pools
	// workers is the recovery parallelism; 0 means one per client. The
	// boundary replays recover with 1, so the simulated cache they start
	// from — and with it every counted miss — is the same on every run.
	workers int
}

// chargedNS is the device time the emulator has charged on this instance's
// pools so far: every simulated-cache miss and every line flush is a busy-wait
// of fixed wall-clock length while the latency is on.
func (in *instance) chargedNS() float64 {
	var ns float64
	for _, p := range in.pools {
		st := p.Stats().Snapshot()
		ns += float64(st.ReadMisses)*float64(scmReadLatency) + float64(st.Flushes)*float64(scmWriteLatency)
	}
	return ns
}

// scale turns a host-speed reading into the factor a section's times are
// multiplied by. Only the CPU share of the section follows the host's speed:
// the device share — charged ns over the busy time of the nc goroutines that
// were spinning it off — is wall-clock time whatever the host does. Requests
// that cross the loopback server follow the reading with the echo in it.
func (in *instance) scale(s speed, chargedNS, seconds float64) float64 {
	v := s.lib
	if in.srv != nil {
		v = s.net
	}
	device := chargedNS / (seconds * 1e9 * float64(in.e.nc))
	if device > 1 {
		device = 1
	}
	return device + (1-device)*v
}

func (in *instance) setLatency(mode scm.LatencyMode) {
	for _, p := range in.pools {
		p.SetLatency(mode, scmReadLatency, scmWriteLatency)
	}
}

// open puts the engine on the pools: formatted fresh, or recovered from what
// the pools hold (the timed part of recovery_s). It also starts a new counter
// registry, because a recovered engine has new counters.
func (in *instance) open(fresh bool) error {
	var err error
	workers := in.workers
	if workers == 0 {
		workers = in.e.nc
	}
	rec := core.RecoveryOptions{Workers: workers}
	switch in.sp.engine {
	case engFixed:
		if fresh {
			in.ctree, err = core.CCreate(in.pools[0], in.sp.cfg)
		} else {
			in.ctree, err = core.COpen(in.pools[0], rec)
		}
	case engVar:
		if fresh {
			in.vtree, err = core.CCreateVar(in.pools[0], in.sp.cfg)
		} else {
			in.vtree, err = core.COpenVar(in.pools[0], rec)
		}
	case engStore:
		var stores []kvserver.Store
		stores, err = kvserver.BuildShardStores(len(in.pools), func(i int) (kvserver.Store, error) {
			if fresh {
				return kvserver.NewFPTreeCStore(in.pools[i])
			}
			return kvserver.OpenFPTreeCStore(in.pools[i], workers)
		})
		if err == nil && len(stores) == 1 {
			in.store = stores[0]
		} else if err == nil {
			in.store, err = kvserver.NewShardedStore(stores, in.pools)
		}
	}
	if err != nil {
		return fmt.Errorf("open engine: %w", err)
	}
	if in.sp.adaptive {
		in.vtree.SetController(htm.NewAdaptiveController(htm.AdaptiveConfig{}))
	}
	if in.tracer != nil {
		in.setTracer(in.tracer)
	}
	in.reg = obs.NewRegistry()
	scm.RegisterPoolsMetrics(in.reg, "scm", in.pools)
	switch {
	case in.ctree != nil:
		in.ctree.RegisterMetrics(in.reg)
	case in.vtree != nil:
		in.vtree.RegisterMetrics(in.reg)
	default:
		in.store.(interface{ RegisterMetrics(*obs.Registry) }).RegisterMetrics(in.reg)
	}
	return nil
}

// direct is a target straight onto the engine, below any server.
func (in *instance) direct() target {
	switch {
	case in.ctree != nil:
		return &fixedTreeTarget{t: in.ctree}
	case in.vtree != nil:
		return varTreeTarget{in.vtree}
	}
	return &storeTarget{in.store}
}

// serve starts a loopback server over the store and dials one connection per
// client. With a tracer it becomes the traced server, which samples request
// spans; without, the plain one.
func (in *instance) serve(tr *trace.Tracer) error {
	srv, addr, err := kvserver.ServeConfig("127.0.0.1:0", in.store, kvserver.Config{Pools: in.pools, Tracer: tr})
	if err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	var wires []*wireTarget
	for c := 0; c < in.e.nc && err == nil; c++ {
		var w *wireTarget
		if w, err = dialWire(addr); err == nil {
			wires = append(wires, w)
		}
	}
	if tr != nil {
		in.tsrv, in.twires = srv, wires
	} else {
		in.srv, in.wires = srv, wires
	}
	return err
}

// quiesce closes the client connections and the servers, after which nothing
// touches the pools.
func (in *instance) quiesce() error {
	for _, w := range append(in.wires, in.twires...) {
		w.close()
	}
	var err error
	for _, srv := range []*kvserver.Server{in.srv, in.tsrv} {
		if srv != nil {
			err = errors.Join(err, srv.Close())
		}
	}
	in.srv, in.tsrv, in.wires, in.twires = nil, nil, nil, nil
	return err
}

// clientTarget is what client c drives: its connection when served (to the
// traced server if asked for), else the engine itself.
func (in *instance) clientTarget(c int, traced bool) target {
	switch {
	case traced && in.twires != nil:
		return in.twires[c]
	case in.wires != nil:
		return in.wires[c]
	}
	return in.direct()
}

// trace switches engine-level tracing on or off and points the clients at
// the matching server. Call between slices, when no op is in flight.
func (in *instance) trace(tr *trace.Tracer, clients []stepper) {
	in.tracer = tr
	in.setTracer(tr)
	if in.wires != nil {
		for c, cl := range clients {
			cl.(*winClient).tgt = in.clientTarget(c, tr != nil)
		}
	}
}

func (in *instance) setTracer(tr *trace.Tracer) {
	switch {
	case in.ctree != nil:
		in.ctree.SetTracer(tr)
	case in.vtree != nil:
		in.vtree.SetTracer(tr)
	default:
		in.store.(interface{ SetTracer(*trace.Tracer) }).SetTracer(tr)
	}
}

func (in *instance) checkInvariants() error {
	switch {
	case in.ctree != nil:
		return in.ctree.CheckInvariants()
	case in.vtree != nil:
		return in.vtree.CheckInvariants()
	}
	return in.store.(kvserver.Checker).CheckInvariants()
}

func (in *instance) len() int {
	switch {
	case in.ctree != nil:
		return in.ctree.Len()
	case in.vtree != nil:
		return in.vtree.Len()
	}
	return in.store.(kvserver.Checker).Len()
}

func (in *instance) allocatedBytes() uint64 {
	var n uint64
	for _, p := range in.pools {
		n += p.AllocatedBytes()
	}
	return n
}

// crash drops every unflushed line and empties the simulated cache of every
// pool; the engine objects on them are dead afterwards.
func (in *instance) crash() {
	for _, p := range in.pools {
		p.Crash()
	}
	in.ctree, in.vtree, in.store = nil, nil, nil
}

// build makes the pools, formats the engine, preloads sp.keys keys in a
// seeded random order with the medium in count mode, starts the server if the
// workload is served and only then switches the latency on. Its wall time is
// setup_s.
func build(e *env, sp spec) (*instance, error) {
	in := &instance{sp: sp, e: e}
	n := sp.shards
	if n == 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		in.pools = append(in.pools, scm.NewPool(sp.poolBytes, scm.LatencyConfig{
			Mode: scm.LatencyCount, ReadLatency: scmReadLatency, WriteLatency: scmWriteLatency}))
	}
	if err := in.open(true); err != nil {
		return nil, err
	}
	if err := preload(in.direct(), e, sp); err != nil {
		return nil, err
	}
	if sp.served {
		if err := in.serve(nil); err != nil {
			return nil, errors.Join(err, in.quiesce())
		}
	}
	in.setLatency(scm.LatencySpin)
	return in, nil
}

// preload inserts ids 0..keys-1 with stamp 0 in a seeded random order.
func preload(tgt target, e *env, sp spec) error {
	order := make([]uint32, sp.keys)
	for i := range order {
		order[i] = uint32(i)
	}
	r := rng{s: mix64(e.seed ^ 0x5eed)}
	for i := len(order) - 1; i > 0; i-- {
		j := r.intn(uint64(i + 1))
		order[i], order[j] = order[j], order[i]
	}
	key, val := make([]byte, sp.sh.keyLen), make([]byte, sp.sh.valLen)
	for _, gid := range order {
		sp.sh.key(uint64(gid), key)
		fillVal(val, uint64(gid), 0)
		if err := tgt.put(key, val, true); err != nil {
			return fmt.Errorf("preload id %d: %w", gid, err)
		}
	}
	return nil
}
