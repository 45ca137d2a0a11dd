package main

import (
	"fmt"
	"time"
)

// result is one workload's run, in the shape the driver's contract gives.
type result struct {
	workload string
	t        tally
	metrics  map[string]float64
}

func (r *result) correct() bool { return r.t.failed == 0 && r.t.attempted > 0 }

// A run sets up at least setupReps times, and a workload whose set-up is
// short keeps going for about setupBudget, so setup_s is a steady median.
const (
	setupReps    = 3
	setupMaxReps = 15
	setupBudget  = 2 * time.Second
)

// probeSlices is the number of slices of a probe phase, which lasts a tenth
// of the main one.
const probeSlices = 5

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// setUp builds the workload's system at least reps times and keeps the last
// one; setup_s is the median build time.
func setUp(hs *hostSpeed, w *workload, e *env, reps int) (*instance, float64, error) {
	var (
		in    *instance
		times []float64
	)
	chain := hs.start()
	start := time.Now()
	for i := 0; i < reps || (reps > 1 && !e.quick && i < setupMaxReps && time.Since(start) < setupBudget); i++ {
		if in != nil {
			if err := in.quiesce(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if in, err = build(e, w.spec(e)); err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds()*chain.next().lib)
	}
	return in, median(times), nil
}

func newClients(w *workload, in *instance) []stepper {
	clients := make([]stepper, in.e.nc)
	for c := range clients {
		clients[c] = w.newClient(in.e, in.sp, c, in.clientTarget(c, false))
	}
	return clients
}

func winClients(clients []stepper) []*winClient {
	out := make([]*winClient, len(clients))
	for c := range clients {
		out[c] = clients[c].(*winClient)
	}
	return out
}

// userBytes is the live key and value payload the clients' models hold.
func userBytes(in *instance, clients []stepper) float64 {
	live := uint64(in.sp.keys)
	if _, hot := clients[0].(*hotClient); !hot {
		live = liveKeys(winClients(clients))
	}
	return float64(live) * float64(in.sp.sh.keyLen+in.sp.sh.valLen)
}

// runUntraced measures the end-to-end metrics of one workload: 3 set-ups, a
// warm-up, the timed slices (or restart cycles) and the durability check.
func runUntraced(w *workload, e *env, seconds float64) (result, error) {
	res := result{workload: w.name, metrics: map[string]float64{}}
	hs, err := newHostSpeed(e)
	if err != nil {
		return res, err
	}
	defer hs.close()
	in, setupS, err := setUp(hs, w, e, setupReps)
	if err != nil {
		return res, err
	}
	clients := newClients(w, in)
	total := time.Duration(seconds * float64(time.Second))
	slice := total / numSlices
	warm := clampDur(total/5, 50*time.Millisecond, 3*time.Second)

	var slices []sliceRec
	var recov []float64
	if w.cycles {
		var t tally
		if slices, recov, t, err = runCycles(hs, in, w, clients, total, nil, nil, 0); err != nil {
			return res, fmt.Errorf("%s: %w", w.name, err)
		}
		res.t.add(t)
	} else {
		s, t := runPhase(hs, in, clients, warm, slice, numSlices, true)
		slices = s
		res.t.add(t)
		if w.probe != nil {
			setMix(winClients(clients), *w.probe)
			s, t := runPhase(hs, in, clients, warm/10, total/10/probeSlices, probeSlices, false)
			slices = append(slices, s...)
			res.t.add(t)
		}
	}
	spaceAmp := float64(in.allocatedBytes()) / userBytes(in, clients)

	rec, t, err := durability(hs, in, clients, nil, 0)
	if err != nil {
		return res, fmt.Errorf("%s: durability check: %w", w.name, err)
	}
	res.t.add(t)
	recov = append(recov, rec...)

	var thr []float64
	for i := range slices {
		if slices[i].main {
			thr = append(thr, float64(slices[i].ops())/slices[i].dur/slices[i].speed)
		}
	}
	p := func(q float64) func(*sliceRec, opClass) float64 {
		return func(s *sliceRec, k opClass) float64 { return s.lat[k].quantile(q) / 1e3 * s.speed }
	}
	res.metrics["throughput_ops_s"] = median(thr)
	res.metrics["read_p50_us"] = sliceMedian(slices, clRead, p(0.50))
	res.metrics["write_p50_us"] = sliceMedian(slices, clWrite, p(0.50))
	res.metrics["recovery_s"] = median(recov)
	res.metrics["space_amp"] = spaceAmp
	res.metrics["setup_s"] = setupS
	return res, nil
}
