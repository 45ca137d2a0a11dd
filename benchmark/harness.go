package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"fptree/internal/obs/trace"
	"fptree/internal/scm"
)

// sliceRec is what one timed slice (or one restart cycle) measured: verified
// ops by latency class, over dur seconds.
type sliceRec struct {
	dur   float64
	speed float64 // host speed relative to nominal while it ran
	lat   [numClasses]hist
	main  bool // counts towards throughput_ops_s
}

func (s *sliceRec) ops() uint64 {
	var n uint64
	for k := range s.lat {
		n += s.lat[k].n
	}
	return n
}

// tally counts ops a phase attempted and ops that failed: errored, timed out
// or returned something the client's model does not allow.
type tally struct{ attempted, failed uint64 }

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

const (
	// numSlices timed slices per run, each bracketed by host-speed
	// measurements. Ten slices of a second held the medians steadier on the
	// shared sandbox than five of two.
	numSlices = 10
	// minSamples is the fewest ops of a class a slice needs before its
	// percentiles are used.
	minSamples = 200
)

// runFor drives every client closed-loop — the next op is sent when the
// previous one has been answered — for dur, and returns what they completed
// as one slice. Nothing in the loop allocates: histograms and sample buffers
// are sized beforehand. perClient > 0 runs that many ops per client instead
// (the restart workload's bursts).
func runFor(clients []stepper, dur time.Duration, perClient int, sample bool) (sliceRec, tally, []reqSample, time.Time) {
	type clientRec struct {
		lat     [numClasses]hist
		t       tally
		samples []reqSample
	}
	recs := make([]clientRec, len(clients))
	if sample {
		for c := range recs {
			recs[c].samples = make([]reqSample, 0, 1<<13)
		}
	}
	var wg sync.WaitGroup
	base := time.Now()
	for c, st := range clients {
		wg.Add(1)
		go func(c int, st stepper, rec *clientRec) {
			defer wg.Done()
			for i := 0; perClient == 0 || i < perClient; i++ {
				st.prepare()
				t0 := time.Since(base)
				kind := st.exec()
				t1 := time.Since(base)
				rec.t.attempted++
				if st.commit() {
					rec.lat[classOf[kind]].add(int64(t1 - t0))
				} else {
					rec.t.failed++
				}
				if rec.samples != nil && i%spanSampleEvery == 0 && len(rec.samples) < cap(rec.samples) {
					rec.samples = append(rec.samples, reqSample{kind, int64(i*len(clients) + c), int64(t0), int64(t1)})
				}
				if perClient == 0 && t1 >= dur {
					return
				}
			}
		}(c, st, &recs[c])
	}
	wg.Wait()
	out := sliceRec{dur: time.Since(base).Seconds()}
	var t tally
	var samples []reqSample
	for c := range recs {
		for k := range out.lat {
			out.lat[k].merge(&recs[c].lat[k])
		}
		t.add(recs[c].t)
		samples = append(samples, recs[c].samples...)
	}
	return out, t, samples, base
}

// runPhase is a warm-up and then n consecutive timed slices, with the host
// speed measured between them.
func runPhase(hs *hostSpeed, in *instance, clients []stepper, warm, slice time.Duration, n int, main bool) ([]sliceRec, tally) {
	_, t, _, _ := runFor(clients, warm, 0, false)
	out := make([]sliceRec, n)
	chain := hs.start()
	for s := range out {
		charged := in.chargedNS()
		rec, st, _, _ := runFor(clients, slice, 0, false)
		rec.speed, rec.main = in.scale(chain.next(), in.chargedNS()-charged, rec.dur), main
		out[s] = rec
		t.add(st)
	}
	return out, t
}

func setMix(clients []*winClient, m mix) {
	for _, cl := range clients {
		cl.mix = m
	}
}

// execCrashing runs the prepared op with the crash fail-point armed and
// reports whether it died mid-flight.
func execCrashing(cl *winClient) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != scm.ErrInjectedCrash {
				panic(r)
			}
			crashed = true
		}
	}()
	cl.exec()
	return false
}

const (
	cycleOps    = 2000 // acked Set/Delete calls per restart cycle, all clients together
	cycleChecks = 2000 // Gets on the recovered store per cycle
	minCycles   = 5
)

// runCycles is the restart workload: until total has passed, {a burst of
// acked writes; one more write that dies at a seeded flush; Pool.Crash;
// timed reopen; the in-flight op must be wholly there or wholly absent; Gets
// against the recovered store}. Each cycle is one slice; its reads are the
// first reads after a restart, on a cold simulated cache. With a tracer, odd
// cycles run traced and even ones untraced.
func runCycles(hs *hostSpeed, in *instance, w *workload, clients []stepper, total time.Duration, tr *trace.Tracer, sl *spanLog, parent int) ([]sliceRec, []float64, tally, error) {
	var (
		slices []sliceRec
		recov  []float64
		t      tally
		r      = rng{s: streamSeed(in.e.seed, "restart-crash", 0)}
		wins   = winClients(clients)
	)
	start := time.Now()
	chain := hs.start()
	for cycle := 0; cycle < minCycles || time.Since(start) < total; cycle++ {
		if tr != nil {
			in.trace([]*trace.Tracer{nil, tr}[cycle%2], clients)
		}
		setMix(wins, w.mix)
		charged := in.chargedNS()
		rec, bt, _, _ := runFor(clients, 0, cycleOps/len(clients), false)
		t.add(bt)

		victim := wins[cycle%len(wins)]
		victim.prepare()
		in.pools[0].FailAfterFlushes(int64(1 + r.intn(6)))
		crashed := execCrashing(victim)
		in.pools[0].FailAfterFlushes(-1)
		t.attempted++
		if !crashed && !victim.commit() {
			t.failed++
		}

		charged = in.chargedNS() - charged
		in.crash()
		id := sl.begin("recovery", parent)
		recCharged := in.chargedNS()
		t0 := time.Now()
		if err := in.open(false); err != nil {
			return nil, nil, t, err
		}
		recovered := time.Since(t0).Seconds()
		recCharged = in.chargedNS() - recCharged
		sl.end(id)
		for _, cl := range wins {
			cl.tgt = in.direct()
		}
		if crashed && !victim.resolve() {
			t.failed++
		}
		if live := liveKeys(wins); uint64(in.len()) != live {
			t.failed++
		}

		setMix(wins, mix{get: 100})
		charged -= in.chargedNS()
		reads, rt, _, _ := runFor(clients, 0, cycleChecks/len(clients), false)
		t.add(rt)
		charged += in.chargedNS()
		rec.lat[clRead] = reads.lat[clRead]
		rec.dur += reads.dur
		host := chain.next()
		rec.speed, rec.main = in.scale(host, charged, rec.dur), true
		recov = append(recov, recovered*in.scale(host, recCharged, recovered))
		slices = append(slices, rec)
	}
	return slices, recov, t, nil
}

func liveKeys(clients []*winClient) uint64 {
	var n uint64
	for _, cl := range clients {
		n += cl.live()
	}
	return n
}

// durability is the check after every workload, outside the timing of the
// ops: crash every pool (unflushed lines are dropped, the simulated cache is
// cold), recover, check the structure's invariants and diff every key against
// the clients' models. The reopen is timed — it is recovery_s — and repeated
// so the median is steady; a second crash of a recovered image is the same
// work again.
func durability(hs *hostSpeed, in *instance, clients []stepper, sl *spanLog, parent int) ([]float64, tally, error) {
	var (
		recov []float64
		t     tally
	)
	if err := in.quiesce(); err != nil {
		return nil, t, fmt.Errorf("quiesce: %w", err)
	}
	reps := 5
	chain := hs.start()
	for i := 0; i < reps; i++ {
		in.crash()
		id := sl.begin("recovery", parent)
		charged := in.chargedNS()
		t0 := time.Now()
		if err := in.open(false); err != nil {
			return nil, t, err
		}
		d := time.Since(t0).Seconds()
		sl.end(id)
		recov = append(recov, d*in.scale(chain.next(), in.chargedNS()-charged, d))
		if i == 0 && !in.e.quick {
			// About a second of recoveries in all, an odd number of them.
			reps = int(1/d) | 1
			if reps < 5 {
				reps = 5
			} else if reps > 25 {
				reps = 25
			}
		}
	}
	in.setLatency(scm.LatencyCount)
	t.attempted++
	if err := in.checkInvariants(); err != nil {
		fmt.Printf("# invariant check failed: %v\n", err)
		t.failed++
	}
	tgt := in.direct()
	var live uint64
	if hot, ok := clients[0].(*hotClient); ok {
		hots := []*hotClient{hot}
		for _, cl := range clients[1:] {
			hots = append(hots, cl.(*hotClient))
		}
		a, f := auditHot(hots, tgt)
		t.add(tally{a, f})
		live = hot.n
	} else {
		for _, cl := range clients {
			a, f := cl.(*winClient).audit(tgt)
			t.add(tally{a, f})
			live += cl.(*winClient).live()
		}
	}
	t.attempted++
	if uint64(in.len()) != live {
		fmt.Printf("# recovered %d keys, the clients' models hold %d\n", in.len(), live)
		t.failed++
	}
	return recov, t, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// driver uses.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		return median(v), median(v)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// sliceMedian computes f on every slice that has enough samples of class k
// and returns the median: one noisy-neighbour burst spoils one slice, not
// the run.
func sliceMedian(slices []sliceRec, k opClass, f func(*sliceRec, opClass) float64) float64 {
	var v []float64
	for i := range slices {
		if slices[i].lat[k].n >= minSamples {
			v = append(v, f(&slices[i], k))
		}
	}
	if len(v) == 0 { // too few ops of this class per slice (tiny runs): pool them
		all := mergeSlices(slices, -1)
		return f(&all, k)
	}
	return median(v)
}
