package main

import (
	"runtime"

	"fptree/internal/core"
)

// env is what a run fixes for every workload: the seed, the scale and the
// client count.
type env struct {
	seed  uint64
	quick bool // smoke-test scale: tiny key sets, a few seconds in total
	nc    int  // closed-loop clients
}

func newEnv(seed uint64, quick bool) *env {
	nc := 2
	if runtime.NumCPU() < nc {
		nc = runtime.NumCPU()
	}
	return &env{seed: seed, quick: quick, nc: nc}
}

func (e *env) size(full, quick int) int {
	if e.quick {
		return quick
	}
	return full
}

func (e *env) salt() uint64 { return mix64(e.seed ^ 0x6b657973) }

// workload is one traffic mix against one system under test.
type workload struct {
	name, why string
	spec      func(e *env) spec
	mix       mix
	zipf      bool // scrambled zipfian over each client's partition, else uniform
	// hot: all clients share every key, unscrambled zipfian (idx-hot).
	hot bool
	// probe, when set, is a second timed phase run after the main one with
	// this mix (idx-read's writes: the main phase stays read-only).
	probe *mix
	// cycles marks the restart workload, which is driven by crash/recover
	// cycles instead of timed slices.
	cycles bool
}

// newClient builds client c's op stream over tgt. It needs no built instance,
// so the same stream can be replayed at any boundary.
func (w *workload) newClient(e *env, sp spec, c int, tgt target) stepper {
	seed := streamSeed(e.seed, w.name, c)
	if w.hot {
		return newHotClient(tgt, seed, c, uint64(sp.keys), newZipf(uint64(sp.keys), zipfTheta))
	}
	per := uint64(sp.keys / e.nc)
	cl := newWinClient(tgt, seed, c, e.nc, per, w.mix, sp.sh)
	if w.zipf {
		cl.z = newZipf(per, zipfTheta)
	}
	return cl
}

func kvSpec(e *env, shards int, served bool, poolMB int64) spec {
	return spec{engine: engStore, shards: shards, served: served, poolBytes: int64(e.size(int(poolMB), 8)) << 20,
		keys: e.size(200000, 4000), sh: shape{keyLen: 16, valLen: 32, key: scatteredHexKey(e.salt())}}
}

var workloads = []*workload{
	{
		name: "kv-read",
		why:  "loopback GET-heavy serving (95/5, zipfian 0.99): kvserver's socket, parse, queue, router and reply do most of the work, the engine little",
		spec: func(e *env) spec { return kvSpec(e, 2, true, 64) },
		mix:  mix{get: 95, update: 5},
		zipf: true,
	},
	{
		name: "kv-write",
		why:  "same server under SET-new/SET/DELETE/GET (25/30/25/20, uniform): the value slot, STORED/DELETED replies and var-key upsert/delete beside reads",
		spec: func(e *env) spec { return kvSpec(e, 2, true, 64) },
		mix:  mix{get: 20, insert: 25, update: 30, del: 25},
	},
	{
		name: "idx-read",
		why:  "library-level fixed-key tree, 1M keys (6x the 4 MiB simulated cache), read-only Find + 100-key range reads: descent, leaf probe and emulator bookkeeping, zero flushes",
		spec: func(e *env) spec {
			return spec{engine: engFixed, cfg: core.Config{InnerFanout: 128}, poolBytes: int64(e.size(64, 8)) << 20,
				keys: e.size(1000000, 20000), sh: shape{keyLen: 8, valLen: 8, key: orderedFixedKey(e.salt())}}
		},
		mix:   mix{get: 95, scan: 5},
		probe: &mix{update: 100},
	},
	{
		name: "idx-write",
		why:  "library-level var-key tree, 16 B keys, Insert/Delete/Update/Find (30/30/20/20) over private partitions: flushes, fences, allocator, splits and leaf deletes",
		spec: func(e *env) spec {
			return spec{engine: engVar, cfg: core.Config{InnerFanout: 64}, poolBytes: int64(e.size(128, 8)) << 20,
				keys: e.size(300000, 10000), sh: shape{keyLen: 16, valLen: 8, key: scatteredHexKey(e.salt())}}
		},
		mix: mix{get: 20, insert: 30, update: 20, del: 30},
	},
	{
		name: "idx-hot",
		hot:  true,
		why:  "10k cache-resident keys shared by all clients, unscrambled zipfian 0.99, Find/Update 50/50 with the adaptive controller: htm conflicts, backoff and fallback are the bottleneck",
		spec: func(e *env) spec {
			return spec{engine: engVar, cfg: core.Config{InnerFanout: 64}, adaptive: true, poolBytes: 16 << 20,
				keys: e.size(10000, 1000), sh: shape{keyLen: 16, valLen: 8, key: orderedHexKey}}
		},
	},
	{
		name:   "restart",
		why:    "memkv's restart path: acked Set/Delete bursts, a crash injected mid-operation, then timed recovery of the store (leaf scan, leak scan, inner rebuild)",
		spec:   func(e *env) spec { return kvSpec(e, 1, false, 96) },
		mix:    mix{insert: 25, update: 50, del: 25},
		cycles: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const zipfTheta = 0.99
