package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// fmtFloat renders a float the way Prometheus clients do: shortest
// round-trip representation.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, one
// HELP/TYPE pair per family, cumulative le-labeled buckets for
// histograms (empty buckets elided; +Inf always present).
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fams := r.view()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind.promType())
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, renderLabels(s.labels), s.c.Value())
			case kindCounterFunc:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, renderLabels(s.labels), s.cFn())
			case kindGauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, renderLabels(s.labels), fmtFloat(s.g.Value()))
			case kindGaugeFunc:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, renderLabels(s.labels), fmtFloat(s.gFn()))
			case kindHistogram:
				writePromHistogram(bw, f.family, s)
			}
		}
	}
	return bw.Flush()
}

// writePromHistogram renders one histogram series: cumulative buckets
// at each non-empty boundary plus the mandatory +Inf, then _sum and
// _count. Bucket bounds and the sum are scaled into exposition units.
func writePromHistogram(w io.Writer, f *family, s *series) {
	snap := s.h.Snapshot()
	withLe := func(le string) string {
		kv := make([]string, 0, len(s.labels)+2)
		kv = append(append(kv, s.labels...), "le", le)
		return renderLabels(kv)
	}
	var cum uint64
	for i, n := range snap.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		le := float64(BucketUpper(i)) * f.scale
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, withLe(fmtFloat(le)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, withLe("+Inf"), snap.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", f.name, renderLabels(s.labels), fmtFloat(float64(snap.Sum)*f.scale))
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(s.labels), snap.Count)
}

// ExpositionStats summarizes a parsed exposition.
type ExpositionStats struct {
	Families int
	Series   int
}

// ParseExposition validates Prometheus text-format input: every line
// must be a well-formed HELP/TYPE comment or a sample whose metric name
// matches the format's grammar, whose label block (if any) is balanced
// and quoted, and whose value parses as a float; a family's TYPE must
// appear before its samples, histogram buckets must be cumulative, and
// no series may repeat. It returns what it counted. This is the
// validator the tests put every live /metrics endpoint through.
func ParseExposition(r io.Reader) (ExpositionStats, error) {
	var st ExpositionStats
	types := make(map[string]string)       // family → TYPE
	seen := make(map[string]bool)          // full series line identity
	lastBucket := make(map[string]float64) // histogram series (sans le) → last cumulative count
	lastLe := make(map[string]float64)     // histogram series (sans le) → last le bound
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if err := parseComment(text, types); err != nil {
				return st, fmt.Errorf("line %d: %w", line, err)
			}
			continue
		}
		name, labels, value, err := parseSample(text)
		if err != nil {
			return st, fmt.Errorf("line %d: %w", line, err)
		}
		fam := histogramFamily(name, types)
		if types[fam] == "" {
			return st, fmt.Errorf("line %d: sample %q before its # TYPE", line, name)
		}
		serKey := name + "|" + labels
		if seen[serKey] {
			return st, fmt.Errorf("line %d: duplicate series %s{%s}", line, name, labels)
		}
		seen[serKey] = true
		st.Series++
		if strings.HasSuffix(name, "_bucket") && types[fam] == "histogram" {
			if err := checkBucket(name, labels, value, lastBucket, lastLe); err != nil {
				return st, fmt.Errorf("line %d: %w", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	st.Families = len(types)
	if st.Series == 0 {
		return st, fmt.Errorf("no samples in exposition")
	}
	return st, nil
}

// parseComment validates a # HELP / # TYPE line, recording TYPEs.
func parseComment(text string, types map[string]string) error {
	fields := strings.SplitN(text, " ", 4)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return fmt.Errorf("malformed comment %q", text)
	}
	name := fields[2]
	if !validMetricName(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	if fields[1] == "TYPE" {
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", text)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		if types[name] != "" {
			return fmt.Errorf("duplicate TYPE for %q", name)
		}
		types[name] = fields[3]
	}
	return nil
}

// parseSample splits a sample line into name, canonical label text and
// value, validating each part.
func parseSample(text string) (name, labels string, value float64, err error) {
	rest := text
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unbalanced label braces in %q", text)
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
		if err := validLabels(labels); err != nil {
			return "", "", 0, err
		}
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return "", "", 0, fmt.Errorf("sample %q has no value", text)
		}
		name, rest = rest[:sp], strings.TrimSpace(rest[sp+1:])
	}
	if !validMetricName(name) {
		return "", "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	// A timestamp may follow the value; only the value is validated.
	valText := rest
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		valText = rest[:sp]
	}
	value, err = strconv.ParseFloat(valText, 64)
	if err != nil && valText != "+Inf" && valText != "-Inf" && valText != "NaN" {
		return "", "", 0, fmt.Errorf("bad sample value %q", valText)
	}
	return name, labels, value, nil
}

// validLabels checks a label block's k="v" grammar.
func validLabels(labels string) error {
	rest := labels
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 || !validLabelName(rest[:eq]) {
			return fmt.Errorf("bad label name in %q", labels)
		}
		rest = rest[eq+1:]
		if len(rest) < 2 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value in %q", labels)
		}
		rest = rest[1:]
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("unterminated label value in %q", labels)
		}
		rest = rest[end+1:]
		if rest != "" {
			if rest[0] != ',' {
				return fmt.Errorf("missing comma between labels in %q", labels)
			}
			rest = rest[1:]
		}
	}
	return nil
}

// checkBucket enforces cumulative, le-ascending histogram buckets.
func checkBucket(name, labels string, value float64, lastBucket, lastLe map[string]float64) error {
	le, others, err := splitLe(labels)
	if err != nil {
		return err
	}
	key := name + "|" + others
	if prev, ok := lastLe[key]; ok {
		if le <= prev {
			return fmt.Errorf("%s buckets not le-ascending (%v after %v)", name, le, prev)
		}
		if value < lastBucket[key] {
			return fmt.Errorf("%s buckets not cumulative (%v after %v)", name, value, lastBucket[key])
		}
	}
	lastLe[key], lastBucket[key] = le, value
	return nil
}

// splitLe extracts the le bound from a bucket's label block, returning
// the remaining labels as the series identity.
func splitLe(labels string) (le float64, others string, err error) {
	parts := strings.Split(labels, ",")
	kept := parts[:0]
	found := false
	for _, p := range parts {
		if v, ok := strings.CutPrefix(p, `le="`); ok {
			v = strings.TrimSuffix(v, `"`)
			found = true
			if v == "+Inf" {
				le = math.Inf(1)
			} else if le, err = strconv.ParseFloat(v, 64); err != nil {
				return 0, "", fmt.Errorf("bad le bound %q", v)
			}
			continue
		}
		kept = append(kept, p)
	}
	if !found {
		return 0, "", fmt.Errorf("histogram bucket without le label: {%s}", labels)
	}
	return le, strings.Join(kept, ","), nil
}

// histogramFamily strips the _bucket/_sum/_count suffix when the base
// name has a registered histogram TYPE.
func histogramFamily(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok && types[base] == "histogram" {
			return base
		}
	}
	return name
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
