package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ValidateExposition checks a Prometheus text-exposition page for the
// structural invariants new metrics most easily break:
//
//   - every series belongs to a family that declared exactly one HELP
//     and one TYPE line, before its first sample;
//   - metric names match [a-z_][a-z0-9_]* (we don't emit colons);
//   - histogram families expose only _bucket/_sum/_count series, with
//     per-labelset buckets cumulative, le ascending, ending in +Inf,
//     and _count equal to the +Inf bucket;
//   - every sample value parses as a float.
//
// It accepts any page this package or the server's /metrics emits and
// is reused by the e2e smoke test against a live server.
//
//provlint:ignore unserved test support: obs, server and provserve tests validate /metrics with it (obs_test.go, server_test.go, smoke_test.go)
func ValidateExposition(data []byte) error {
	type family struct {
		help, typ bool
		kind      string
	}
	families := make(map[string]*family)
	type bucketKey struct{ base, labels string }
	type bucketPoint struct {
		le  float64
		val float64
	}
	buckets := make(map[bucketKey][]bucketPoint)
	sums := make(map[bucketKey]bool)
	counts := make(map[bucketKey]float64)

	lineNo := 0
	for _, line := range strings.Split(string(data), "\n") {
		lineNo++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			name := fields[2]
			if !validMetricName(name) {
				return fmt.Errorf("line %d: bad metric name %q", lineNo, name)
			}
			f := families[name]
			if f == nil {
				f = &family{}
				families[name] = f
			}
			switch fields[1] {
			case "HELP":
				if f.help {
					return fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
				}
				f.help = true
			case "TYPE":
				if f.typ {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				if len(fields) < 4 {
					return fmt.Errorf("line %d: TYPE for %s missing kind", lineNo, name)
				}
				f.typ = true
				f.kind = fields[3]
			}
			continue
		}

		name, labels, valStr, err := splitSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		if !validMetricName(name) {
			return fmt.Errorf("line %d: bad metric name %q", lineNo, name)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("line %d: bad value %q for %s", lineNo, valStr, name)
		}

		// Resolve the declaring family: exact name, or for histogram
		// sub-series the base name.
		fam := families[name]
		base := name
		if fam == nil {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if b, ok := strings.CutSuffix(name, suffix); ok {
					if f := families[b]; f != nil && f.kind == "histogram" {
						fam, base = f, b
						break
					}
				}
			}
		}
		if fam == nil || !fam.help || !fam.typ {
			return fmt.Errorf("line %d: series %s has no preceding HELP/TYPE family", lineNo, name)
		}
		if fam.kind == "histogram" {
			if base == name {
				return fmt.Errorf("line %d: histogram %s exposes bare series", lineNo, name)
			}
			le, rest, hasLE := extractLE(labels)
			key := bucketKey{base, rest}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if !hasLE {
					return fmt.Errorf("line %d: %s bucket missing le label", lineNo, base)
				}
				leVal := math.Inf(1)
				if le != "+Inf" {
					leVal, err = strconv.ParseFloat(le, 64)
					if err != nil {
						return fmt.Errorf("line %d: bad le %q", lineNo, le)
					}
				}
				buckets[key] = append(buckets[key], bucketPoint{leVal, val})
			case strings.HasSuffix(name, "_sum"):
				sums[key] = true
			case strings.HasSuffix(name, "_count"):
				counts[key] = val
			}
		}
	}

	// Cross-line histogram invariants.
	keys := make([]bucketKey, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].base != keys[j].base {
			return keys[i].base < keys[j].base
		}
		return keys[i].labels < keys[j].labels
	})
	for _, k := range keys {
		pts := buckets[k]
		for i := 1; i < len(pts); i++ {
			if pts[i].le <= pts[i-1].le {
				return fmt.Errorf("histogram %s{%s}: le not ascending", k.base, k.labels)
			}
			if pts[i].val < pts[i-1].val {
				return fmt.Errorf("histogram %s{%s}: buckets not cumulative", k.base, k.labels)
			}
		}
		last := pts[len(pts)-1]
		if !math.IsInf(last.le, 1) {
			return fmt.Errorf("histogram %s{%s}: buckets do not end in +Inf", k.base, k.labels)
		}
		if !sums[k] {
			return fmt.Errorf("histogram %s{%s}: missing _sum", k.base, k.labels)
		}
		cnt, ok := counts[k]
		if !ok {
			return fmt.Errorf("histogram %s{%s}: missing _count", k.base, k.labels)
		}
		if cnt != last.val {
			return fmt.Errorf("histogram %s{%s}: _count %v != +Inf bucket %v", k.base, k.labels, cnt, last.val)
		}
	}
	return nil
}

// ExpositionSeries parses a page into series-line → value, keyed by the
// full "name{labels}" string, so tests can diff two scrapes and assert
// _total monotonicity.
//
//provlint:ignore unserved test support: obs and server tests read exposition series with it (internal/obs/obs_test.go, internal/server/obs_test.go)
func ExpositionSeries(data []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, valStr, err := splitSample(line)
		if err != nil {
			return nil, err
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q", line)
		}
		key := name
		if labels != "" {
			// The exposition parser's series identity is the canonical
			// Prometheus textual form; quoting would fork the format.
			//provlint:ignore cachekey series identity is name{labels} verbatim, values come from our own exposition not the wire
			key = name + "{" + labels + "}"
		}
		out[key] = val
	}
	return out, nil
}

// validMetricName reports whether name matches [a-z_][a-z0-9_]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '_', c >= 'a' && c <= 'z':
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

// splitSample parses `name{labels} value` or `name value`, tolerating
// quoted label values containing spaces and escaped quotes.
func splitSample(line string) (name, labels, value string, err error) {
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		rest := line[i+1:]
		// Scan for the closing brace outside quotes.
		inQ := false
		end := -1
		for j := 0; j < len(rest); j++ {
			switch rest[j] {
			case '\\':
				if inQ {
					j++
				}
			case '"':
				inQ = !inQ
			case '}':
				if !inQ {
					end = j
				}
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", "", "", fmt.Errorf("unterminated labels in %q", line)
		}
		labels = rest[:end]
		value = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return "", "", "", fmt.Errorf("malformed sample %q", line)
		}
		name, value = fields[0], fields[1]
	}
	if value == "" {
		return "", "", "", fmt.Errorf("missing value in %q", line)
	}
	return name, labels, value, nil
}

// extractLE pulls the le label out of a rendered label string,
// returning the remaining labels (normalized, order preserved) as the
// grouping key.
func extractLE(labels string) (le, rest string, ok bool) {
	parts := splitLabels(labels)
	kept := make([]string, 0, len(parts))
	for _, p := range parts {
		if v, found := strings.CutPrefix(p, "le="); found {
			le = strings.Trim(v, `"`)
			ok = true
			continue
		}
		kept = append(kept, p)
	}
	return le, strings.Join(kept, ","), ok
}

// splitLabels splits `k1="v1",k2="v2"` on commas outside quotes.
func splitLabels(labels string) []string {
	if labels == "" {
		return nil
	}
	var parts []string
	inQ := false
	start := 0
	for i := 0; i < len(labels); i++ {
		switch labels[i] {
		case '\\':
			if inQ {
				i++
			}
		case '"':
			inQ = !inQ
		case ',':
			if !inQ {
				parts = append(parts, labels[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, labels[start:])
	return parts
}
