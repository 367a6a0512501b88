package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// appendEscaped appends a label value, escaped per the Prometheus text
// format.
func appendEscaped(b []byte, v string) []byte {
	if !strings.ContainsAny(v, "\\\"\n") {
		return append(b, v...)
	}
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\', '"':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return b
}

// appendLabels appends an alternating k/v list as {k="v",…}, with le
// (when not empty) as a last le="…" label; nothing to show appends nothing.
func appendLabels(b []byte, kv []string, le []byte) []byte {
	if len(kv) == 0 && len(le) == 0 {
		return b
	}
	b = append(b, '{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(b, kv[i]...), '=', '"')
		b = append(appendEscaped(b, kv[i+1]), '"')
	}
	if len(le) > 0 {
		if len(kv) > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, `le="`...), le...), '"')
	}
	return append(b, '}')
}

// appendStrs appends each part.
func appendStrs(b []byte, parts ...string) []byte {
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// appendFloat renders a float the way Prometheus clients do: shortest
// round-trip representation.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, one
// HELP/TYPE pair per family, cumulative le-labeled buckets for
// histograms (empty buckets elided; +Inf always present). The text is
// formatted into one buffer and written once: a scrape costs a handful
// of allocations however many lines it has.
func (r *Registry) WritePrometheus(w io.Writer) error {
	fams := r.view()
	slices.SortFunc(fams, func(x, y famView) int { return strings.Compare(x.name, y.name) })
	b := make([]byte, 0, 16<<10)
	for _, f := range fams {
		b = appendStrs(b, "# HELP ", f.name, " ", f.help, "\n")
		b = appendStrs(b, "# TYPE ", f.name, " ", f.kind.promType(), "\n")
		for _, s := range f.series {
			if f.kind == kindHistogram {
				b = appendPromHistogram(b, f.family, s)
				continue
			}
			b = append(appendLabels(append(b, f.name...), s.labels, nil), ' ')
			switch f.kind {
			case kindCounter:
				b = strconv.AppendUint(b, s.c.Value(), 10)
			case kindCounterFunc:
				b = strconv.AppendUint(b, s.cFn(), 10)
			case kindGauge:
				b = appendFloat(b, s.g.Value())
			case kindGaugeFunc:
				b = appendFloat(b, s.gFn())
			}
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

// appendPromHistogram renders one histogram series: cumulative buckets
// at each non-empty boundary plus the mandatory +Inf, then _sum and
// _count. Bucket bounds and the sum are scaled into exposition units.
func appendPromHistogram(b []byte, f *family, s *series) []byte {
	snap := s.h.Snapshot()
	sample := func(suffix string, le []byte) {
		b = append(appendLabels(appendStrs(b, f.name, suffix), s.labels, le), ' ')
	}
	var cum uint64
	var le [32]byte
	for i, n := range snap.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		sample("_bucket", appendFloat(le[:0], float64(BucketUpper(i))*f.scale))
		b = append(strconv.AppendUint(b, cum, 10), '\n')
	}
	sample("_bucket", append(le[:0], "+Inf"...))
	b = append(strconv.AppendUint(b, snap.Count, 10), '\n')
	sample("_sum", nil)
	b = append(appendFloat(b, float64(snap.Sum)*f.scale), '\n')
	sample("_count", nil)
	return append(strconv.AppendUint(b, snap.Count, 10), '\n')
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
