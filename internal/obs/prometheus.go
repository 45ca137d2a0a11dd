package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): a # HELP and # TYPE line per family
// followed by its samples. Counters keep the name they were registered with
// (the convention is a _total suffix); histograms expand into cumulative
// _bucket{le="..."} series in seconds plus _sum and _count. Families appear
// in the order their first series was registered, and all series of one
// family (labeled variants of the same name) are written together under its
// header, the first registration's help text winning.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	bw := bufio.NewWriter(w)
	families := map[string][]*metric{}
	var names []string
	for _, m := range r.order {
		if families[m.name] == nil {
			names = append(names, m.name)
		}
		families[m.name] = append(families[m.name], m)
	}
	for _, name := range names {
		first := families[name][0]
		help := strings.NewReplacer("\\", "\\\\", "\n", "\\n").Replace(first.help)
		fmt.Fprintf(bw, "# HELP %s %s\n", name, help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, [...]string{"counter", "gauge", "histogram"}[first.kind])
		for _, m := range families[name] {
			if m.kind == KindHistogram {
				writeHistogram(bw, m.name, m.hist.Snapshot())
			} else {
				fmt.Fprintf(bw, "%s %s\n", m.series(), formatValue(m.read()))
			}
		}
	}
	return bw.Flush()
}

// writeHistogram emits the cumulative bucket series. Power-of-two nanosecond
// upper bounds are converted to seconds; empty high buckets beyond the last
// populated one are collapsed into +Inf to keep scrapes compact.
func writeHistogram(w io.Writer, name string, s HistogramSnapshot) {
	last := 0
	for b, c := range s.Buckets {
		if c > 0 {
			last = b
		}
	}
	cum := uint64(0)
	for b := 0; b <= last; b++ {
		cum += s.Buckets[b]
		ub := float64(uint64(1)<<uint(b)-1) / 1e9
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatLE(ub), cum)
	}
	for b := last + 1; b < HistogramBuckets; b++ {
		cum += s.Buckets[b]
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatValue(s.Sum.Seconds()))
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}

func formatLE(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ValidateExposition checks that r contains well-formed Prometheus text
// exposition: every sample belongs to a family announced by a preceding
// # TYPE line, HELP/TYPE appear at most once per family, no series (name plus
// label set) repeats, sample values parse as floats, and histogram families
// have consistent _bucket/_sum/_count samples with non-decreasing cumulative
// bucket counts. The CI metrics-smoke job and the endpoint tests run every
// /metrics scrape through it.
func ValidateExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	typeOf := map[string]string{}     // family -> type
	helped := map[string]bool{}       // family -> HELP seen
	seen := map[string]bool{}         // full series (name+labels) -> sample seen
	lastBucket := map[string]uint64{} // histogram family -> last cumulative count
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			family := fields[2]
			if !validName(family) {
				return fmt.Errorf("line %d: invalid metric name %q", lineNo, family)
			}
			if fields[1] == "HELP" {
				if helped[family] {
					return fmt.Errorf("line %d: duplicate HELP for %q", lineNo, family)
				}
				helped[family] = true
				continue
			}
			if _, dup := typeOf[family]; dup {
				return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, family)
			}
			if len(fields) < 4 {
				return fmt.Errorf("line %d: TYPE without a type %q", lineNo, line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown type %q", lineNo, fields[3])
			}
			typeOf[family] = fields[3]
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		series := name + labels
		if seen[series] {
			return fmt.Errorf("line %d: duplicate series %q", lineNo, series)
		}
		seen[series] = true
		family, isBucket := histogramFamily(name, typeOf)
		if typeOf[family] == "" {
			return fmt.Errorf("line %d: sample %q has no preceding TYPE", lineNo, name)
		}
		if isBucket {
			cum := uint64(value)
			if cum < lastBucket[family] {
				return fmt.Errorf("line %d: %s cumulative bucket decreased", lineNo, family)
			}
			lastBucket[family] = cum
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(seen) == 0 {
		return fmt.Errorf("exposition contains no samples")
	}
	return nil
}

// histogramFamily maps a sample name to its announced family, resolving the
// _bucket/_sum/_count suffixes of histogram and summary expansions.
func histogramFamily(name string, typeOf map[string]string) (family string, isBucket bool) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if t := typeOf[base]; t == "histogram" || t == "summary" {
				return base, suf == "_bucket"
			}
		}
	}
	return name, false
}

// parseSample splits `name{labels} value [timestamp]` and checks the pieces.
func parseSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unbalanced braces in %q", line)
		}
		name, labels, rest = rest[:i], rest[i:j+1], strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", "", 0, fmt.Errorf("sample without value: %q", line)
		}
		name, rest = fields[0], strings.Join(fields[1:], " ")
	}
	if !validName(name) {
		return "", "", 0, fmt.Errorf("invalid sample name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", 0, fmt.Errorf("malformed sample %q", line)
	}
	v, perr := strconv.ParseFloat(fields[0], 64)
	if perr != nil {
		return "", "", 0, fmt.Errorf("bad value %q: %v", fields[0], perr)
	}
	return name, labels, v, nil
}
