// Command benchmark is the repository's benchmark: six closed-loop workloads
// from loopback SET/GET down to crash recovery, every result checked, every
// metric printed by name. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all six)")
		seed    = flag.Uint64("seed", 1, "seed of the generated op streams and key sets")
		seconds = flag.Float64("seconds", runSeconds, "timed measurement per workload, split into 10 slices")
		traced  = flag.Int("trace", 0, "1: run the traced pass and print the per-layer metrics instead")
		quick   = flag.Bool("quick", false, "smoke-test scale: tiny key sets")
		repeat  = flag.Int("repeat", 1, "run N full sets (seeds seed, seed+1, …) and print median, quartiles and spread per metric")
		spans   = flag.String("spans", ".bench_build/spans", "traced pass: directory the span files are written to")
		desc    = flag.Bool("describe", false, "print BENCHMARK.json as the metric and workload tables define it, and exit")
	)
	flag.Parse()
	if *desc {
		os.Stdout.Write(describe())
		return
	}
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []*workload{w}
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}

	fmt.Println("#", hostLine(*seed))
	if runtime.NumCPU() < 2 {
		fmt.Println("# nproc < 2: running with 1 client instead of 2")
	}
	all := result{metrics: map[string]float64{}}
	sets := map[string][]float64{} // -repeat: every set's value per workload/metric
	for set := 0; set < *repeat; set++ {
		for _, w := range selected {
			e := newEnv(*seed+uint64(set), *quick)
			var res result
			var err error
			if *traced == 1 {
				res, err = runTraced(w, e, *seconds, *spans)
			} else {
				res, err = runUntraced(w, e, *seconds)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			printResult(res, defs)
			all.t.add(res.t)
			for k, v := range res.metrics {
				if len(selected) > 1 {
					k = w.name + "/" + k
				}
				sets[k] = append(sets[k], v)
			}
		}
	}
	for k, v := range sets {
		all.metrics[k] = median(v)
	}
	if *repeat > 1 {
		printSpread(selected, defs, sets)
	}
	emit(all, defs)
	if !all.correct() {
		os.Exit(1)
	}
}

// printSpread is the -repeat report: per workload and metric the median and
// quartiles over the sets, and the interquartile spread as a share of the
// median beside the metric's bound.
func printSpread(selected []*workload, defs []metricDef, sets map[string][]float64) {
	fmt.Printf("# %-10s %-32s %14s %14s %14s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range selected {
		for _, d := range defs {
			k := d.name
			if len(selected) > 1 {
				k = w.name + "/" + k
			}
			q1, q3 := quartiles(sets[k])
			med := median(sets[k])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("# %-10s %-32s %14.4f %14.4f %14.4f %7.1f%% %5.0f%%\n", w.name, d.name, q1, med, q3, spread*100, d.bound*100)
		}
	}
}

func printResult(r result, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%-10s %-36s %14.4f %s\n", r.workload, d.name, r.metrics[d.name], d.unit)
	}
	fmt.Printf("%-10s attempted %d failed %d\n", r.workload, r.t.attempted, r.t.failed)
}

// emit prints the contract's result object as the last line of stdout. With
// several workloads the metric names are prefixed "<workload>/".
func emit(r result, defs []metricDef) {
	units := map[string]string{}
	for _, d := range defs {
		units[d.name] = d.unit
	}
	metrics := map[string]any{}
	for k, v := range r.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[k] = map[string]any{"value": v, "unit": units[k[strings.Index(k, "/")+1:]]}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.t.attempted, "failed": r.t.failed, "metrics": metrics})
	fmt.Println(string(line))
}

// runSeconds is BENCHMARK.json's run_seconds: what the driver passes as
// --seconds.
const runSeconds = 10

// describe renders BENCHMARK.json from the tables in metrics.go and
// workloads.go, which are the single source; the smoke test pins the file at
// the repository root to this output.
func describe() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// host is the fingerprint stamped on every output: wall-clock numbers mean
// nothing without the machine they were taken on.
func host(seed uint64) map[string]any {
	h := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": "unknown", "load1": "unknown", "seed": seed, "commit": "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				h["cpu"] = strings.TrimSpace(line[strings.Index(line, ":")+1:])
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		h["load1"] = strings.Fields(string(data))[0]
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h["commit"] = s.Value
			}
		}
	}
	return h
}

func hostLine(seed uint64) string {
	h := host(seed)
	return fmt.Sprintf("host nproc=%v gomaxprocs=%v go=%v cpu=%q load1=%v seed=%v commit=%v",
		h["nproc"], h["gomaxprocs"], h["go"], h["cpu"], h["load1"], h["seed"], h["commit"])
}
