package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fptree/internal/core"
	"fptree/internal/htm"
	"fptree/internal/kvserver"
	"fptree/internal/obs"
	"fptree/internal/obs/trace"
	"fptree/internal/scm"
)

const (
	tracePairs = 3     // untraced/traced slice pairs behind obs.trace_overhead_pct
	replayOps  = 50000 // ops of client 0's stream replayed at each boundary
	leafCap    = 56    // every workload uses the engine's default leaf capacity
)

func (e *env) replayOps() int { return e.size(replayOps, 3000) }

// replayRec is one single-client replay of a workload's stream at a boundary.
type replayRec struct {
	lat   [numKinds]hist
	t     tally
	speed float64
	delta obs.Snapshot // counters of the boundary's engine and pools across the replay
}

func (r *replayRec) ops(kinds ...opKind) float64 {
	var n uint64
	for _, k := range kinds {
		n += r.lat[k].n
	}
	return float64(n)
}

// med is the median latency of the given kinds in ns at nominal host speed.
func (r *replayRec) med(kinds ...opKind) float64 {
	var h hist
	for _, k := range kinds {
		h.merge(&r.lat[k])
	}
	return h.quantile(0.5) * r.speed
}

// replay plays the first n ops of client 0's stream against tgt from a single
// goroutine. With one client and no timers the counters it diffs repeat
// exactly for a seed. A workload with a probe phase continues with n/10 ops
// of the probe mix, so its write path is measured too.
func replay(hs *hostSpeed, w *workload, in *instance, tgt target, sl *spanLog, parent int, name string) replayRec {
	cl := w.newClient(in.e, in.sp, 0, tgt)
	n := in.e.replayOps()
	rec := replayRec{}
	samples := make([]reqSample, 0, n/spanSampleEvery+n/10/spanSampleEvery+2)
	id := sl.begin("replay."+name, parent)
	chain := hs.start()
	before, charged := in.reg.Snapshot(), in.chargedNS()
	base := time.Now()
	run := func(n int) {
		for i := 0; i < n; i++ {
			cl.prepare()
			t0 := time.Since(base)
			kind := cl.exec()
			t1 := time.Since(base)
			rec.t.attempted++
			if cl.commit() {
				rec.lat[kind].add(int64(t1 - t0))
			} else {
				rec.t.failed++
			}
			if i%spanSampleEvery == 0 {
				samples = append(samples, reqSample{kind, int64(i), int64(t0), int64(t1)})
			}
		}
	}
	run(n)
	if w.probe != nil {
		cl.(*winClient).mix = *w.probe
		run(n / 10)
	}
	rec.delta = in.reg.Snapshot().Sub(before)
	elapsed := time.Since(base).Seconds()
	// One goroutine spins the device time off here, not e.nc.
	rec.speed = in.scale(chain.next(), (in.chargedNS()-charged)*float64(in.e.nc), elapsed)
	sl.end(id)
	sl.addSamples(id, name+".", base, samples)
	return rec
}

// cloneOpen copies src's pools and recovers an engine of the given spec on
// the copies, leaving src untouched. The copy's simulated cache starts cold.
func cloneOpen(src *instance, sp spec) (*instance, error) {
	c := &instance{sp: sp, e: src.e, workers: 1}
	for _, p := range src.pools {
		c.pools = append(c.pools, p.Clone())
	}
	c.setLatency(scm.LatencyCount)
	if err := c.open(false); err != nil {
		return nil, err
	}
	c.setLatency(scm.LatencySpin)
	return c, nil
}

// boundaries replays the workload's stream outside-in. Every workload gets
// B0, the engine called directly; the served workloads also get B1 (one
// store holding every key), B2 (the router) and B3 (the loopback server).
func boundaries(hs *hostSpeed, w *workload, in *instance, sl *spanLog, parent int, m map[string]float64) (tally, error) {
	var t tally
	sp := in.sp
	src := in // the image B0 (and B1) recover from: every key in one tree
	if sp.engine == engStore && sp.shards > 1 {
		one := sp
		one.shards, one.served, one.poolBytes = 1, false, sp.poolBytes*int64(sp.shards)
		var err error
		if src, err = build(in.e, one); err != nil {
			return t, err
		}
	}
	treeSpec := sp
	if sp.engine == engStore {
		treeSpec = spec{engine: engVar, keys: sp.keys, sh: sp.sh}
	}
	treeSpec.served, treeSpec.adaptive = false, false
	b0in, err := cloneOpen(src, treeSpec)
	if err != nil {
		return t, err
	}
	tgt := b0in.direct()
	if sp.engine == engStore {
		tgt = &slotTreeTarget{t: b0in.vtree}
	}
	b0 := replay(hs, w, b0in, tgt, sl, parent, "b0")
	t.add(b0.t)
	coreAndSCM(b0, b0in, sp.engine == engStore, m)
	if !sp.served {
		return t, nil
	}

	unserved := sp
	unserved.served = false
	var recs []replayRec // B1, B2, B3
	for i, b := range []struct {
		from  *instance
		sp    spec
		serve bool
	}{{src, src.sp, false}, {in, unserved, false}, {in, unserved, true}} {
		bin, err := cloneOpen(b.from, b.sp)
		if err != nil {
			return t, err
		}
		tgt := bin.direct()
		if b.serve {
			if err := bin.serve(nil); err != nil {
				return t, err
			}
			tgt = bin.wires[0]
		}
		rec := replay(hs, w, bin, tgt, sl, parent, fmt.Sprintf("b%d", i+1))
		recs = append(recs, rec)
		t.add(rec.t)
		if _, router := bin.store.(*kvserver.ShardedStore); router && !b.serve {
			m["kvserver.store_get_allocs_per_op"], m["kvserver.store_set_allocs_per_op"] = storeAllocs(w, bin)
		}
		if err := bin.quiesce(); err != nil {
			return t, err
		}
	}
	sets := []opKind{opInsert, opUpdate}
	g := [4]float64{b0.med(opGet), recs[0].med(opGet), recs[1].med(opGet), recs[2].med(opGet)}
	s := [4]float64{b0.med(sets...), recs[0].med(sets...), recs[1].med(sets...), recs[2].med(sets...)}
	for i, layer := range []string{"adapter", "router", "wire"} {
		m["kvserver."+layer+"_get_ns"] = g[i+1] - g[i]
		m["kvserver."+layer+"_set_ns"] = s[i+1] - s[i]
	}
	m["kvserver.b3_get_ns"], m["kvserver.b3_set_ns"] = g[3], s[3]
	return t, nil
}

// coreAndSCM fills the core.* and scm.* metrics the B0 replay yields. Under
// a store every write is an Upsert; at library level inserts and updates are
// separate calls.
func coreAndSCM(r replayRec, in *instance, underStore bool, m map[string]float64) {
	m["core.find_ns"] = r.med(opGet)
	if underStore {
		m["core.upsert_ns"] = r.med(opInsert, opUpdate)
	} else {
		m["core.insert_ns"], m["core.update_ns"] = r.med(opInsert), r.med(opUpdate)
	}
	m["core.delete_ns"] = r.med(opDelete)
	m["core.scann100_ns"], m["core.iter100_ns"] = r.med(opScan), r.med(opIter)

	d := r.delta
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ops := float64(r.t.attempted)
	writes := r.ops(opInsert, opUpdate, opDelete)
	m["core.key_probes_per_search"] = per(d["fptree_key_probes_total"], d["fptree_searches_total"])
	m["core.fp_false_positive_ratio"] = per(d["fptree_fingerprint_false_positives_total"], d["fptree_fingerprint_compares_total"])
	m["core.splits_per_kop"] = per(d["fptree_leaf_splits_total"], ops) * 1000
	m["scm.flushes_per_write"] = per(d["scm_flushes_total"], writes)
	m["scm.fences_per_write"] = per(d["scm_fences_total"], writes)
	m["scm.allocs_per_write"] = per(d["scm_allocs_total"], writes)
	m["scm.frees_per_write"] = per(d["scm_frees_total"], writes)
	m["scm.misses_per_op"] = per(d["scm_read_misses_total"], ops)
	m["scm.loads_per_op"] = per(d["scm_reads_total"], ops)
	m["scm.stores_per_op"] = per(d["scm_writes_total"], ops)
	m["scm.cache_hit_ratio"] = per(d["scm_read_hits_total"], d["scm_read_hits_total"]+d["scm_read_misses_total"])
	userBytes := r.ops(opInsert, opUpdate)*float64(in.sp.sh.keyLen+in.sp.sh.valLen) + r.ops(opDelete)*float64(in.sp.sh.keyLen)
	m["scm.flushed_bytes_per_user_byte"] = per(d["scm_bytes_flushed_total"], userBytes)
	m["scm.charged_ns_per_op"] = per(d["scm_read_misses_total"]*float64(scmReadLatency)+d["scm_flushes_total"]*float64(scmWriteLatency), ops)

	var mem core.MemoryStats
	var height, keys int
	if in.ctree != nil {
		mem, height, keys = in.ctree.Memory(), in.ctree.Height(), in.ctree.Len()
	} else {
		mem, height, keys = in.vtree.Memory(), in.vtree.Height(), in.vtree.Len()
	}
	m["core.height"] = float64(height)
	m["core.leaf_fill"] = per(float64(keys), float64(mem.Leaves*leafCap))
	m["core.dram_bytes_per_key"] = per(float64(mem.DRAMBytes), float64(keys))
	m["core.scm_bytes_per_key"] = per(float64(mem.SCMBytes), float64(keys))
}

// storeAllocs counts heap allocations per direct Get and per direct Set on
// the router: the harness's own loop allocates nothing, so what is counted is
// the store's.
func storeAllocs(w *workload, in *instance) (get, set float64) {
	const n = 2000
	cl := w.newClient(in.e, in.sp, 1, in.direct()).(*winClient)
	count := func(m mix) float64 {
		cl.mix = m
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for i := 0; i < n; i++ {
			cl.prepare()
			cl.exec()
			cl.commit()
		}
		runtime.ReadMemStats(&b)
		return float64(b.Mallocs-a.Mallocs) / n
	}
	return count(mix{get: 100}), count(mix{update: 100})
}

// window is the counter state around a two-client slice.
type window struct {
	reg              obs.Snapshot
	mem              runtime.MemStats
	bytesIn, bytesUp uint64
	storeErr, proto  uint64
}

func snapshot(in *instance) window {
	w := window{reg: in.reg.Snapshot()}
	runtime.ReadMemStats(&w.mem)
	for _, srv := range []*kvserver.Server{in.srv, in.tsrv} {
		if srv != nil {
			sm := srv.Metrics()
			w.bytesIn += sm.BytesRead.Load()
			w.bytesUp += sm.BytesWritten.Load()
			w.storeErr += sm.StoreErrors.Load()
			w.proto += sm.ProtocolErrors.Load()
		}
	}
	return w
}

// windowMetrics fills what the traced two-client slice yields: htm, kvserver
// traffic, runtime, the device's share of the service time and the tracer's
// phase split.
func windowMetrics(in *instance, a, b window, rec sliceRec, t tally, tr *trace.Tracer, m map[string]float64) {
	ops := float64(t.attempted)
	d := b.reg.Sub(a.reg)
	m["htm.abort_ratio"] = d["htm_aborts_total"] / ops
	m["htm.aborts_leaf_lock_per_kop"] = d["htm_aborts_"+htm.AbortLeafLock.String()+"_total"] / ops * 1000
	m["htm.aborts_descend_per_kop"] = d["htm_aborts_"+htm.AbortDescend.String()+"_total"] / ops * 1000
	m["htm.restarts_per_kop"] = d["htm_restarts_total"] / ops * 1000
	m["htm.fallbacks_per_kop"] = d["htm_fallbacks_total"] / ops * 1000
	m["htm.final_retry_budget"] = htm.DefaultMaxRetries
	if budget, ok := b.reg["htm_adaptive_budget"]; ok {
		m["htm.final_retry_budget"] = budget
	}
	m["kvserver.bytes_in_per_op"] = float64(b.bytesIn-a.bytesIn) / ops
	m["kvserver.bytes_out_per_op"] = float64(b.bytesUp-a.bytesUp) / ops
	m["kvserver.store_errors"] = float64(b.storeErr - a.storeErr)
	m["kvserver.protocol_errors"] = float64(b.proto - a.proto)
	if n := len(in.pools); in.sp.engine == engStore && n > 1 {
		var sum, max float64
		for i := 0; i < n; i++ {
			s := d[obs.Series("fptree_searches_total", obs.ShardLabel(i))]
			sum += s
			if s > max {
				max = s
			}
		}
		if sum > 0 {
			m["kvserver.shard_skew"] = max / (sum / float64(n))
		}
	}
	m["runtime.allocs_per_op"] = float64(b.mem.Mallocs-a.mem.Mallocs) / ops
	m["runtime.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	m["runtime.heap_inuse_mb"] = float64(b.mem.HeapInuse) / (1 << 20)

	var all hist
	for k := range rec.lat {
		all.merge(&rec.lat[k])
	}
	charged := (d["scm_read_misses_total"]*float64(scmReadLatency) + d["scm_flushes_total"]*float64(scmWriteLatency)) / ops
	if mean := all.mean(); mean > 0 {
		m["scm.device_share"] = charged / mean
	}

	const read, write = 0, 1
	var count [2]float64
	var phase [2][trace.NumPhases]float64
	for _, tot := range tr.Totals() {
		var side int
		switch tot.Op {
		case trace.OpFind:
			side = read
		case trace.OpInsert, trace.OpUpdate, trace.OpUpsert, trace.OpDelete:
			side = write
		default: // range reads and the server's request spans
			continue
		}
		count[side] += float64(tot.Count)
		for _, p := range tot.Phases {
			phase[side][p.Phase] += float64(p.NS)
		}
	}
	for side, name := range []string{"read", "write"} {
		if count[side] == 0 {
			continue
		}
		m["core."+name+"_descend_ns"] = phase[side][trace.PhaseDescend] / count[side] * rec.speed
		m["core."+name+"_leaf_ns"] = phase[side][trace.PhaseLeaf] / count[side] * rec.speed
		if side == write {
			m["core.write_smo_ns"] = phase[side][trace.PhaseSMO] / count[side] * rec.speed
		}
	}
}

// recoveryCounters reads what the engine itself recorded about the recovery
// that just ran: leaves scanned (summed over shards) and the inner rebuild's
// wall time (the slowest shard, since shards recover in parallel).
func recoveryCounters(in *instance) (leaves, rebuildNS float64) {
	switch {
	case in.ctree != nil:
		return float64(in.ctree.Ops.RecoveryLeaves.Load()), float64(in.ctree.Ops.RecoveryNanos.Load())
	case in.vtree != nil:
		return float64(in.vtree.Ops.RecoveryLeaves.Load()), float64(in.vtree.Ops.RecoveryNanos.Load())
	}
	shards := []kvserver.Store{in.store}
	if r, ok := in.store.(*kvserver.ShardedStore); ok {
		shards = shards[:0]
		for i := 0; i < r.NumShards(); i++ {
			shards = append(shards, r.Shard(i))
		}
	}
	for _, s := range shards {
		reg := obs.NewRegistry()
		s.(interface{ RegisterMetrics(*obs.Registry) }).RegisterMetrics(reg)
		snap := reg.Snapshot()
		leaves += snap["fptree_recovery_leaves_scanned_total"]
		if ns := snap["fptree_recovery_rebuild_seconds"] * 1e9; ns > rebuildNS {
			rebuildNS = ns
		}
	}
	return leaves, rebuildNS
}

// emulatorTax times the emulator's own primitives in count mode, where no
// latency is charged: what is left is bookkeeping no real DIMM has (the
// crashed flag, pool-global stats atomics, the cache simulator's striped
// mutex). load_hit_2t_ns runs the hit loop on two goroutines over one pool,
// which is where the shared lines show.
func emulatorTax(hs *hostSpeed, m map[string]float64) error {
	const n = 200000
	pool := scm.NewPool(32<<20, scm.LatencyConfig{})
	root, err := pool.AllocRoot(24 << 20)
	if err != nil {
		return fmt.Errorf("emulator tax: %w", err)
	}
	base := root.Offset
	chain := hs.start()
	per := func(f func()) float64 {
		t0 := time.Now()
		f()
		return float64(time.Since(t0)) / n * chain.next().lib
	}
	hit := func(off uint64) func() {
		return func() {
			for i := uint64(0); i < n; i++ {
				pool.ReadU64(off + (i&1023)*8)
			}
		}
	}
	hit(base)() // bring the 8 KiB window into the simulated cache
	m["scm.load_hit_ns"] = per(hit(base))
	m["scm.load_miss_ns"] = per(func() { // a 12.8 MB sweep, line by line, through a 4 MiB cache
		for i := uint64(0); i < n; i++ {
			pool.ReadU64(base + 64<<10 + i*scm.LineSize)
		}
	})
	m["scm.persist_line_ns"] = per(func() {
		for i := uint64(0); i < n; i++ {
			off := base + (i&4095)*scm.LineSize
			pool.WriteU64(off, i)
			pool.Persist(off, 8)
		}
	})
	m["scm.alloc_free_ns"] = per(func() {
		for i := 0; i < n && err == nil; i++ {
			if _, err = pool.Alloc(base, 128); err == nil {
				pool.Free(base, 128)
			}
		}
	})
	if err != nil {
		return fmt.Errorf("emulator tax: %w", err)
	}
	m["scm.load_hit_2t_ns"] = per(func() {
		var wg sync.WaitGroup
		for c := uint64(0); c < 2; c++ {
			wg.Add(1)
			go func(f func()) {
				defer wg.Done()
				f()
			}(hit(base + 32<<10 + c*16<<10))
		}
		wg.Wait()
	})
	return nil
}

// recoveryFixed1M is the paper's own recovery configuration: a bulk-loaded,
// group-allocated single-threaded fixed-key tree of 1M keys, crashed and
// reopened.
func recoveryFixed1M(hs *hostSpeed, e *env) (float64, error) {
	n := e.size(1000000, 20000)
	pool := scm.NewPool(int64(e.size(64, 8))<<20, scm.LatencyConfig{
		Mode: scm.LatencyCount, ReadLatency: scmReadLatency, WriteLatency: scmWriteLatency})
	t, err := core.Create(pool, core.Config{GroupSize: 8})
	if err != nil {
		return 0, err
	}
	kvs := make([]core.KV, n)
	for i := range kvs {
		kvs[i] = core.KV{Key: uint64(i+1) << 8, Value: uint64(i)}
	}
	if err := t.BulkLoad(kvs, 0); err != nil {
		return 0, err
	}
	pool.SetLatency(scm.LatencySpin, scmReadLatency, scmWriteLatency)
	pool.Crash()
	chain := hs.start()
	t0 := time.Now()
	if _, err := core.Open(pool, core.RecoveryOptions{Workers: e.nc}); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds() * chain.next().lib, nil
}

// runTraced is the separate traced pass: set-up once, the boundary replay,
// an untraced and a traced two-client slice, the durability check and the
// workload-independent emulator measurements. It reports every per-layer
// metric and writes the spans it recorded to spansDir.
func runTraced(w *workload, e *env, seconds float64, spansDir string) (result, error) {
	res := result{workload: w.name, metrics: map[string]float64{}}
	m := res.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	hs, err := newHostSpeed(e)
	if err != nil {
		return res, err
	}
	defer hs.close()
	sl := &spanLog{base: time.Now()}
	root := sl.begin("run", 0)

	id := sl.begin("setup", root)
	in, _, err := setUp(hs, w, e, 1)
	sl.end(id)
	if err != nil {
		return res, err
	}
	t, err := boundaries(hs, w, in, sl, root, m)
	if err != nil {
		return res, fmt.Errorf("%s: boundary replay: %w", w.name, err)
	}
	res.t.add(t)
	runtime.GC() // drop the boundary clones before the slices' heap is looked at

	// Two-client slices on the live instance, untraced and traced in turn, so
	// both sides of obs.trace_overhead_pct see the same stretch of host time.
	clients := newClients(w, in)
	half := time.Duration(seconds * float64(time.Second) / 2)
	tr := trace.New(trace.Config{SampleEvery: spanSampleEvery})
	var untraced, traced sliceRec
	var tracedT tally
	var a, b window
	var thrU, thrT []float64
	if w.cycles {
		var slices []sliceRec
		a = snapshot(in)
		if slices, _, tracedT, err = runCycles(hs, in, w, clients, half, tr, sl, root); err != nil {
			return res, err
		}
		b = snapshot(in)
		a.reg, b.reg = nil, nil // every cycle's recovery starts new engine counters
		for i := range slices {
			thr := float64(slices[i].ops()) / slices[i].dur / slices[i].speed
			if i%2 == 1 {
				thrT = append(thrT, thr)
			} else {
				thrU = append(thrU, thr)
			}
		}
		untraced, traced = mergeSlices(slices, 0), mergeSlices(slices, 1)
	} else {
		if in.sp.served {
			if err := in.serve(tr); err != nil {
				return res, err
			}
		}
		_, t, _, _ = runFor(clients, clampDur(half/5, 50*time.Millisecond, 2*time.Second), 0, false)
		res.t.add(t)
		var us, ts []sliceRec
		a = snapshot(in)
		chain := hs.start()
		for pair := 0; pair < tracePairs; pair++ {
			for _, side := range []*trace.Tracer{nil, tr} {
				in.trace(side, clients)
				name := "slice.untraced"
				if side != nil {
					name = "slice.traced"
				}
				id = sl.begin(name, root)
				charged := in.chargedNS()
				rec, t, smp, base := runFor(clients, half/(2*tracePairs), 0, side != nil)
				sl.end(id)
				rec.speed = in.scale(chain.next(), in.chargedNS()-charged, rec.dur)
				tracedT.add(t)
				thr := float64(rec.ops()) / rec.dur / rec.speed
				if side != nil {
					ts, thrT = append(ts, rec), append(thrT, thr)
					sl.addSamples(id, "request.", base, smp)
				} else {
					us, thrU = append(us, rec), append(thrU, thr)
				}
			}
		}
		b = snapshot(in)
		untraced, traced = mergeSlices(us, -1), mergeSlices(ts, -1)
	}
	res.t.add(tracedT)
	windowMetrics(in, a, b, traced, tracedT, tr, m)
	m["obs.trace_overhead_pct"] = (median(thrU) - median(thrT)) / median(thrU) * 100
	for class, name := range []string{"read", "write", "scan"} {
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p99", 0.99}, {"p999", 0.999}} {
			if _, ok := m["harness."+name+"_"+q.name+"_us"]; ok {
				m["harness."+name+"_"+q.name+"_us"] = untraced.lat[class].quantile(q.q) / 1e3 * untraced.speed
			}
		}
	}
	m["harness.host_speed"] = untraced.speed

	in.trace(nil, clients)
	_, t, err = durability(hs, in, clients, sl, root)
	if err != nil {
		return res, fmt.Errorf("%s: durability check: %w", w.name, err)
	}
	res.t.add(t)
	m["core.recovery_leaves"], m["core.recovery_rebuild_ns"] = recoveryCounters(in)

	if err := emulatorTax(hs, m); err != nil {
		return res, err
	}
	if m["core.recovery_fixed_1m_s"], err = recoveryFixed1M(hs, e); err != nil {
		return res, fmt.Errorf("fixed-key recovery: %w", err)
	}
	sl.end(root)

	self := map[string]float64{"core.find_ns": m["core.find_ns"], "core.upsert_ns": m["core.upsert_ns"]}
	for _, layer := range []string{"adapter", "router", "wire"} {
		for _, op := range []string{"get", "set"} {
			name := "kvserver." + layer + "_" + op + "_ns"
			self[name] = m[name]
		}
	}
	if err := sl.write(filepath.Join(spansDir, w.name+".json"), host(e.seed), w.name, self); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// mergeSlices folds slices into one: all of them, or with parity 0 or 1 the
// even or odd ones (the restart pass's untraced and traced cycles).
func mergeSlices(slices []sliceRec, parity int) sliceRec {
	var out sliceRec
	var speed, n float64
	for i := range slices {
		if parity >= 0 && i%2 != parity {
			continue
		}
		for k := range out.lat {
			out.lat[k].merge(&slices[i].lat[k])
		}
		out.dur += slices[i].dur
		speed += slices[i].speed
		n++
	}
	if n > 0 {
		out.speed = speed / n
	}
	return out
}
