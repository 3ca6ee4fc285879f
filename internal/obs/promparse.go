// promparse.go is a small parser for the Prometheus text exposition
// format (version 0.0.4) — enough grammar for two consumers: the
// exposition tests, which assert every emitted line round-trips, and
// the coordinator's fleet scraper, which re-labels each worker's
// exposition with a peer label. It is deliberately strict where the
// repo's own writer is concerned (every sample must belong to an
// announced family) rather than a lenient general-purpose scraper.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromSample is one sample line of an exposition.
type PromSample struct {
	// Name is the full series name ("ice_frame_latency_us_bucket").
	Name string
	// Labels are the label pairs in source order.
	Labels []PromLabel
	// Value is the sample value, verbatim (values like "+Inf" and
	// floats survive a re-render unchanged).
	Value string
}

// Label returns the value of the named label ("" when absent).
func (s PromSample) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// FloatValue returns the sample value as a float64.
func (s PromSample) FloatValue() (float64, error) {
	return strconv.ParseFloat(s.Value, 64)
}

// PromFamily is one metric family of an exposition: the # TYPE
// announcement plus every sample that belongs to it. PromFamilies
// builds families from a snapshot and ParseProm from text; WriteFamilies
// renders either.
type PromFamily struct {
	Name string
	Type string // counter | gauge | histogram | untyped
	// Help is the # HELP text as written, escapes included ("" when the
	// family has none).
	Help    string
	Samples []PromSample
}

// familyOwns reports whether a series name belongs to the family:
// either the family name itself or, for histograms, one of the
// _bucket/_sum/_count children.
func familyOwns(family, typ, series string) bool {
	if series == family {
		return true
	}
	if typ != "histogram" {
		return false
	}
	rest, ok := strings.CutPrefix(series, family)
	if !ok {
		return false
	}
	return rest == "_bucket" || rest == "_sum" || rest == "_count"
}

// parseLabels parses the inside of a {...} block.
func parseLabels(s string, lineNo int) ([]PromLabel, error) {
	var out []PromLabel
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("line %d: malformed label pair in %q", lineNo, s)
		}
		key := s[:eq]
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("line %d: label %q value is not quoted", lineNo, key)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Errorf("line %d: dangling escape in label %q", lineNo, key)
				}
				i++
				switch s[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("line %d: bad escape \\%c in label %q", lineNo, s[i], key)
				}
				continue
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("line %d: unterminated label value for %q", lineNo, key)
		}
		out = append(out, PromLabel{Key: key, Value: val.String()})
		if len(s) > 0 {
			if s[0] != ',' {
				return nil, fmt.Errorf("line %d: expected ',' between labels, got %q", lineNo, s)
			}
			s = s[1:]
		}
	}
	return out, nil
}

// ParseProm parses an exposition into its metric families, in source
// order. It enforces the grammar the repo's writer promises: every
// non-comment line must be "name{labels} value", the value must be a
// valid float (or ±Inf/NaN), and every sample must belong to a family
// announced by a preceding # TYPE line.
func ParseProm(r io.Reader) ([]PromFamily, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var (
		fams    []PromFamily
		byName  = map[string]*PromFamily{}
		order   []string
		helpFor = map[string]string{}
		lineNo  int
	)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || fields[0] != "#" {
				continue // free-form comment
			}
			switch fields[1] {
			case "HELP":
				if len(fields) == 4 {
					helpFor[fields[2]] = fields[3]
				} else {
					helpFor[fields[2]] = ""
				}
			case "TYPE":
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed # TYPE line %q", lineNo, line)
				}
				name, typ := fields[2], fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := byName[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate # TYPE for %q", lineNo, name)
				}
				byName[name] = &PromFamily{Name: name, Type: typ, Help: helpFor[name]}
				order = append(order, name)
			}
			continue
		}

		// Sample line: name[{labels}] value
		var name, rest string
		if brace := strings.IndexByte(line, '{'); brace >= 0 {
			name = line[:brace]
			end := strings.LastIndexByte(line, '}')
			if end < brace {
				return nil, fmt.Errorf("line %d: unterminated label block in %q", lineNo, line)
			}
			rest = line[brace+1:]
			rest = rest[:end-brace-1]
			labels, err := parseLabels(rest, lineNo)
			if err != nil {
				return nil, err
			}
			value := strings.TrimSpace(line[end+1:])
			if err := checkSample(byName, name, value, lineNo); err != nil {
				return nil, err
			}
			fam := owningFamily(byName, name)
			fam.Samples = append(fam.Samples, PromSample{Name: name, Labels: labels, Value: value})
			continue
		}
		sp := strings.IndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("line %d: malformed sample line %q", lineNo, line)
		}
		name, rest = line[:sp], strings.TrimSpace(line[sp+1:])
		if err := checkSample(byName, name, rest, lineNo); err != nil {
			return nil, err
		}
		fam := owningFamily(byName, name)
		fam.Samples = append(fam.Samples, PromSample{Name: name, Value: rest})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range order {
		fams = append(fams, *byName[name])
	}
	return fams, nil
}

// owningFamily resolves the family a series name belongs to (nil-safe
// only after checkSample succeeded).
func owningFamily(byName map[string]*PromFamily, series string) *PromFamily {
	if fam, ok := byName[series]; ok {
		return fam
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(series, suffix); ok {
			if fam, ok := byName[base]; ok && fam.Type == "histogram" {
				return fam
			}
		}
	}
	return nil
}

// checkSample validates one sample line against the announced families.
func checkSample(byName map[string]*PromFamily, series, value string, lineNo int) error {
	if !promNameRE.MatchString(strings.ToLower(series)) {
		return fmt.Errorf("line %d: invalid series name %q", lineNo, series)
	}
	if value == "" {
		return fmt.Errorf("line %d: series %q has no value", lineNo, series)
	}
	if _, err := strconv.ParseFloat(value, 64); err != nil {
		return fmt.Errorf("line %d: series %q value %q is not a number: %v", lineNo, series, value, err)
	}
	fam := owningFamily(byName, series)
	if fam == nil {
		return fmt.Errorf("line %d: series %q has no matching # TYPE line", lineNo, series)
	}
	if !familyOwns(fam.Name, fam.Type, series) {
		return fmt.Errorf("line %d: series %q does not belong to family %q", lineNo, series, fam.Name)
	}
	return nil
}

// WriteFamilies renders families in the exposition format, in the
// given order with their samples in order. It is the one writer:
// WriteProm renders PromFamilies through it, the fleet scraper renders
// its merged families, and passing the slice straight from ParseProm
// round-trips the exposition (modulo HELP text dropped by lenient
// parsing).
func WriteFamilies(w io.Writer, fams []PromFamily) error {
	var b strings.Builder
	for _, fam := range fams {
		if fam.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", fam.Name, fam.Help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.Name, fam.Type)
		for _, s := range fam.Samples {
			var parts []string
			for _, l := range s.Labels {
				parts = append(parts, l.Key+`="`+escapeLabel(l.Value)+`"`)
			}
			block := ""
			if len(parts) > 0 {
				block = "{" + strings.Join(parts, ",") + "}"
			}
			fmt.Fprintf(&b, "%s%s %s\n", s.Name, block, s.Value)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// MergeFamilies concatenates several parsed expositions into one,
// deduplicating # TYPE announcements: the first family seen under a
// name keeps its Type/Help, later families under the same name have
// their samples appended (first-TYPE-wins). Family order is first
// appearance; sample order is source order. The fleet scraper uses it
// to merge per-peer expositions whose families largely coincide.
func MergeFamilies(groups ...[]PromFamily) []PromFamily {
	var (
		out   []PromFamily
		index = map[string]int{}
	)
	for _, fams := range groups {
		for _, fam := range fams {
			i, ok := index[fam.Name]
			if !ok {
				index[fam.Name] = len(out)
				out = append(out, fam)
				continue
			}
			out[i].Samples = append(out[i].Samples, fam.Samples...)
		}
	}
	return out
}

// SortFamilies orders families by name (stable, so sample order within
// a family is preserved) for deterministic fleet output.
func SortFamilies(fams []PromFamily) {
	sort.SliceStable(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
}
