package obs

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheusValidAndComplete(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("scm_flushes_total", "cache-line write-backs")
	g := reg.Gauge("kv_conns", "open connections")
	h := reg.Histogram("kv_get_latency_seconds", "get latency")
	c.Add(42)
	g.Set(-3)
	h.Observe(800 * time.Nanosecond)
	h.Observe(2 * time.Millisecond)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP scm_flushes_total cache-line write-backs",
		"# TYPE scm_flushes_total counter",
		"scm_flushes_total 42",
		"# TYPE kv_conns gauge",
		"kv_conns -3",
		"# TYPE kv_get_latency_seconds histogram",
		`kv_get_latency_seconds_bucket{le="+Inf"} 2`,
		"kv_get_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("self-validation failed: %v\n%s", err, out)
	}
}

// TestWritePrometheusOverflowOnlyUnderInf observes a sample past the last
// finite bound (2^45 ns, about 10 hours): it may be counted under +Inf only.
func TestWritePrometheusOverflowOnlyUnderInf(t *testing.T) {
	var h Histogram
	h.Observe(time.Microsecond)
	h.Observe(time.Duration(1) << 45)
	var b strings.Builder
	writeHistogram(&b, "x", h.Snapshot())
	out := b.String()
	if strings.Contains(out, `le="549.755813887"} 2`) || !strings.Contains(out, `x_bucket{le="+Inf"} 2`) {
		t.Fatalf("the 2^45 ns sample must be counted under +Inf only:\n%s", out)
	}
	if err := ValidateExposition(strings.NewReader("# TYPE x histogram\n" + out)); err != nil {
		t.Fatal(err)
	}
}

// TestWritePrometheusBucketsUnchanged pins the exposition of seeded sample
// sets below 2^39 ns byte for byte: the fine buckets are exported as one le
// per power of two, the set a power-of-two histogram exported, so a
// dashboard's series and their counts do not depend on the bucket layout.
func TestWritePrometheusBucketsUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var all, narrow Histogram
	for i := 0; i < 5000; i++ { // every octave up to 2^39 - 1 ns
		all.Observe(time.Duration(r.Int63n(int64(1) << uint(1+r.Intn(39)))))
	}
	for i := 0; i < 1000; i++ { // 100 ns-10 ms, the high octaves collapse into +Inf
		narrow.Observe(100 + time.Duration(r.Int63n(int64(10*time.Millisecond-100))))
	}
	var b strings.Builder
	writeHistogram(&b, "x", all.Snapshot())
	writeHistogram(&b, "y", narrow.Snapshot())
	if got := b.String(); got != wantBuckets {
		t.Fatalf("exposition changed:\n%s\nwant:\n%s", got, wantBuckets)
	}
}

const wantBuckets = `x_bucket{le="0"} 126
x_bucket{le="1e-09"} 250
x_bucket{le="3e-09"} 378
x_bucket{le="7e-09"} 487
x_bucket{le="1.5e-08"} 616
x_bucket{le="3.1e-08"} 753
x_bucket{le="6.3e-08"} 899
x_bucket{le="1.27e-07"} 1028
x_bucket{le="2.55e-07"} 1147
x_bucket{le="5.11e-07"} 1255
x_bucket{le="1.023e-06"} 1397
x_bucket{le="2.047e-06"} 1537
x_bucket{le="4.095e-06"} 1672
x_bucket{le="8.191e-06"} 1795
x_bucket{le="1.6383e-05"} 1930
x_bucket{le="3.2767e-05"} 2064
x_bucket{le="6.5535e-05"} 2182
x_bucket{le="0.000131071"} 2336
x_bucket{le="0.000262143"} 2464
x_bucket{le="0.000524287"} 2575
x_bucket{le="0.001048575"} 2725
x_bucket{le="0.002097151"} 2841
x_bucket{le="0.004194303"} 2977
x_bucket{le="0.008388607"} 3092
x_bucket{le="0.016777215"} 3198
x_bucket{le="0.033554431"} 3338
x_bucket{le="0.067108863"} 3470
x_bucket{le="0.134217727"} 3590
x_bucket{le="0.268435455"} 3721
x_bucket{le="0.536870911"} 3823
x_bucket{le="1.073741823"} 3950
x_bucket{le="2.147483647"} 4081
x_bucket{le="4.294967295"} 4204
x_bucket{le="8.589934591"} 4322
x_bucket{le="17.179869183"} 4460
x_bucket{le="34.359738367"} 4581
x_bucket{le="68.719476735"} 4709
x_bucket{le="137.438953471"} 4826
x_bucket{le="274.877906943"} 4926
x_bucket{le="549.755813887"} 5000
x_bucket{le="+Inf"} 5000
x_sum 75702.274463053
x_count 5000
y_bucket{le="0"} 0
y_bucket{le="1e-09"} 0
y_bucket{le="3e-09"} 0
y_bucket{le="7e-09"} 0
y_bucket{le="1.5e-08"} 0
y_bucket{le="3.1e-08"} 0
y_bucket{le="6.3e-08"} 0
y_bucket{le="1.27e-07"} 0
y_bucket{le="2.55e-07"} 0
y_bucket{le="5.11e-07"} 0
y_bucket{le="1.023e-06"} 0
y_bucket{le="2.047e-06"} 0
y_bucket{le="4.095e-06"} 0
y_bucket{le="8.191e-06"} 0
y_bucket{le="1.6383e-05"} 1
y_bucket{le="3.2767e-05"} 3
y_bucket{le="6.5535e-05"} 8
y_bucket{le="0.000131071"} 13
y_bucket{le="0.000262143"} 21
y_bucket{le="0.000524287"} 40
y_bucket{le="0.001048575"} 96
y_bucket{le="0.002097151"} 178
y_bucket{le="0.004194303"} 368
y_bucket{le="0.008388607"} 831
y_bucket{le="0.016777215"} 1000
y_bucket{le="+Inf"} 1000
y_sum 5.26588881
y_count 1000
`

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no TYPE":            "a_total 1\n",
		"duplicate series":   "# TYPE a_total counter\na_total 1\na_total 2\n",
		"duplicate TYPE":     "# TYPE a_total counter\n# TYPE a_total counter\na_total 1\n",
		"bad value":          "# TYPE a_total counter\na_total zebra\n",
		"bad name":           "# TYPE 9bad counter\n9bad 1\n",
		"empty":              "\n",
		"decreasing buckets": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
	}
	for name, body := range cases {
		if err := ValidateExposition(strings.NewReader(body)); err == nil {
			t.Errorf("%s: validation unexpectedly passed:\n%s", name, body)
		}
	}
}

func TestValidateExpositionAcceptsLabels(t *testing.T) {
	body := "# HELP h lat\n# TYPE h histogram\n" +
		"h_bucket{le=\"0.001\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.003\nh_count 2\n"
	if err := ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPEndpointServesMetricsExpvarAndEvents(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("endpoint_test_total", "x").Add(7)
	ring := NewEventRing(8)
	ring.Record("test", "hello ring")
	srv, addr, err := Serve("127.0.0.1:0", reg, ring)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "endpoint_test_total 7") {
		t.Fatalf("/metrics missing counter:\n%s", metrics)
	}
	if err := ValidateExposition(strings.NewReader(metrics)); err != nil {
		t.Fatalf("/metrics not valid exposition: %v", err)
	}
	if vars := get("/debug/vars"); !strings.Contains(vars, "memstats") {
		t.Fatalf("/debug/vars missing memstats")
	}
	if ev := get("/debug/events"); !strings.Contains(ev, "hello ring") {
		t.Fatalf("/debug/events missing recorded event: %q", ev)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("/debug/pprof/ index missing profiles")
	}
}
