package fleet

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-exposition (format 0.0.4) parsing and merging. The
// gateway scrapes every replica's /metrics, parses each page, and sums
// series point-wise to serve one fleet-wide exposition: counters and
// gauges add, and histogram _bucket/_sum/_count series add per le=
// label — exact because every histogram a replica exposes has a fixed
// bucket layout (obs.FixedHistogram) that is identical on every replica.

// Exposition is a parsed metrics page: typed families in input order,
// each holding its samples in input order.
type Exposition struct {
	Families []*Family
	byName   map[string]*Family
}

// Family is one metric family: the TYPE declaration plus every sample
// whose name belongs to it (for histograms, the _bucket/_sum/_count
// series).
type Family struct {
	Name    string
	Type    string // "counter", "gauge", "histogram", or "untyped"
	Samples []*Sample
	byKey   map[string]*Sample
}

// Sample is one series point: the full sample name (family name, or
// family name + _bucket/_sum/_count for histograms), its raw label
// block (`{le="0.05"}` or empty), and the value.
type Sample struct {
	Name   string
	Labels string
	Value  float64
}

// key identifies a series within a family.
func (s *Sample) key() string { return s.Name + s.Labels }

const (
	maxExpositionBytes  = 8 << 20
	maxExpositionSeries = 100000
)

// ParseExposition parses one Prometheus text page. It accepts the
// subset the obs registry emits (TYPE comments, unlabeled samples, and
// label blocks) plus HELP/arbitrary comments and optional timestamps,
// and rejects malformed names, label blocks, and values with a
// line-numbered error. Inputs beyond 8MB or 100k series are rejected
// outright so a misbehaving replica cannot balloon the gateway.
func ParseExposition(data []byte) (*Exposition, error) {
	if len(data) > maxExpositionBytes {
		return nil, fmt.Errorf("fleet: exposition exceeds %d bytes", maxExpositionBytes)
	}
	exp := &Exposition{byName: make(map[string]*Family)}
	series := 0
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			// Only "# TYPE name type" is structural; HELP and free-form
			// comments pass through unrecorded.
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("fleet: exposition line %d: malformed TYPE comment", ln+1)
				}
				name, typ := fields[2], fields[3]
				if !validPromName(name) {
					return nil, fmt.Errorf("fleet: exposition line %d: bad family name %q", ln+1, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("fleet: exposition line %d: unknown type %q", ln+1, typ)
				}
				fam := exp.family(name)
				if fam.Type != "untyped" && fam.Type != typ {
					return nil, fmt.Errorf("fleet: exposition line %d: family %q declared both %s and %s",
						ln+1, fam.Name, fam.Type, typ)
				}
				fam.Type = typ
			}
			continue
		}
		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("fleet: exposition line %d: %v", ln+1, err)
		}
		series++
		if series > maxExpositionSeries {
			return nil, fmt.Errorf("fleet: exposition exceeds %d series", maxExpositionSeries)
		}
		fam := exp.familyForSample(name)
		fam.add(&Sample{Name: name, Labels: labels, Value: value})
	}
	return exp, nil
}

// family returns (creating if needed) the family record for name.
func (e *Exposition) family(name string) *Family {
	if f, ok := e.byName[name]; ok {
		return f
	}
	f := &Family{Name: name, Type: "untyped", byKey: make(map[string]*Sample)}
	e.byName[name] = f
	e.Families = append(e.Families, f)
	return f
}

// familyForSample maps a sample name onto its family: _bucket/_sum/
// _count suffixes belong to an already-declared histogram family,
// anything else is its own family.
func (e *Exposition) familyForSample(name string) *Family {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if f, ok := e.byName[base]; ok && f.Type == "histogram" {
				return f
			}
		}
	}
	return e.family(name)
}

// add accumulates a sample into the family, summing duplicates.
func (f *Family) add(s *Sample) {
	if prev, ok := f.byKey[s.key()]; ok {
		prev.Value += s.Value
		return
	}
	f.byKey[s.key()] = s
	f.Samples = append(f.Samples, s)
}

// parseSampleLine splits `name[{labels}] value [timestamp]`.
func parseSampleLine(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j, err := labelBlockEnd(rest, i)
		if err != nil {
			return "", "", 0, err
		}
		labels = rest[i : j+1]
		rest = rest[j+1:]
	} else {
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return "", "", 0, fmt.Errorf("sample %q missing value", line)
		}
		name, rest = rest[:sp], rest[sp:]
	}
	if !validPromName(name) {
		return "", "", 0, fmt.Errorf("bad sample name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", 0, fmt.Errorf("sample %q: want value [timestamp]", line)
	}
	value, perr := strconv.ParseFloat(fields[0], 64)
	if perr != nil {
		return "", "", 0, fmt.Errorf("sample %q: bad value: %v", line, perr)
	}
	return name, labels, value, nil
}

// labelBlockEnd returns the index of the '}' closing the label block
// that opens at i, honoring quoted label values with escapes.
func labelBlockEnd(s string, i int) (int, error) {
	inQuote := false
	for j := i + 1; j < len(s); j++ {
		switch {
		case inQuote && s[j] == '\\':
			j++ // skip the escaped byte
		case s[j] == '"':
			inQuote = !inQuote
		case !inQuote && s[j] == '}':
			return j, nil
		}
	}
	return 0, fmt.Errorf("unterminated label block in %q", s)
}

func validPromName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// Merge sums expositions point-wise: same (sample name, label block) →
// values add; families and series unknown to earlier pages append in
// encounter order. Since every replica emits its families sorted and
// its histogram buckets in ascending bound order, the merged page
// preserves those orders. A family declared with conflicting types
// across pages is an error — replicas of one fleet run one binary, so
// a type clash means the list mixes incompatible services.
func Merge(pages ...*Exposition) (*Exposition, error) {
	out := &Exposition{byName: make(map[string]*Family)}
	for _, page := range pages {
		if page == nil {
			continue
		}
		for _, fam := range page.Families {
			dst := out.family(fam.Name)
			if fam.Type != "untyped" {
				if dst.Type != "untyped" && dst.Type != fam.Type {
					return nil, fmt.Errorf("fleet: merging %q: type %s vs %s", fam.Name, dst.Type, fam.Type)
				}
				dst.Type = fam.Type
			}
			for _, s := range fam.Samples {
				dst.add(&Sample{Name: s.Name, Labels: s.Labels, Value: s.Value})
			}
		}
	}
	return out, nil
}

// WriteTo renders the exposition back to the text format, families
// sorted by name for a stable page, samples in accumulated order.
func (e *Exposition) WriteTo(sb *strings.Builder) {
	fams := append([]*Family(nil), e.Families...)
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	for _, fam := range fams {
		if fam.Type != "untyped" {
			fmt.Fprintf(sb, "# TYPE %s %s\n", fam.Name, fam.Type)
		}
		for _, s := range fam.Samples {
			fmt.Fprintf(sb, "%s%s %s\n", s.Name, s.Labels, formatPromValue(s.Value))
		}
	}
}

// String renders the exposition as one text page.
func (e *Exposition) String() string {
	var sb strings.Builder
	e.WriteTo(&sb)
	return sb.String()
}

func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
