package pavfio

// Multi-window interval tables: the streaming extension of the pAVF
// table format for time-resolved sweeps. One file carries a sequence of
// windows, each a complete pAVF table confined to a half-open cycle
// range:
//
//	# workload md5            (optional; all occurrences must agree)
//	# window 0 0 1000
//	R RegFile.rd0 0.125000
//	...
//	# window 1 1000 2000
//	R RegFile.rd0 0.093000
//	...
//
// The same strictness as Parse applies, plus window-geometry rules:
// indices are sequential from 0, every span has Start < End, and
// successive windows are ordered and non-overlapping (gaps allowed).
// Records before the first window directive are errors, as is a window
// with no records. Duplicate records are rejected per window.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"seqavf/internal/core"
)

// IntervalWindow is one time window of an interval table: a half-open
// cycle span [Start, End) and the pAVF inputs measured inside it.
type IntervalWindow struct {
	Index  int
	Start  uint64
	End    uint64
	Inputs *core.Inputs
}

// IntervalTable is a parsed multi-window pAVF table.
type IntervalTable struct {
	// Workload is the name from the table's "# workload" directive, or
	// "" when the table carries none.
	Workload string
	// Windows are ordered, non-overlapping, and indexed from 0.
	Windows []IntervalWindow
}

// Cycles returns the total span the table covers, End of the last
// window minus Start of the first (including any interior gaps).
func (t *IntervalTable) Cycles() uint64 {
	if len(t.Windows) == 0 {
		return 0
	}
	return t.Windows[len(t.Windows)-1].End - t.Windows[0].Start
}

// ParseIntervals reads r to the end and parses it as a multi-window
// pAVF table; see ParseIntervalsText. Read errors are reported as
// "name: err".
func ParseIntervals(name string, r io.Reader) (*IntervalTable, error) {
	text, err := readText(name, r)
	if err != nil {
		return nil, err
	}
	return ParseIntervalsText(name, text)
}

// ParseIntervalsText parses a multi-window pAVF table (see the package
// comment above for the format). name labels the source in errors.
// Every record value passes the same finite-[0,1] validation as
// ParseText; window geometry is validated strictly with file:line
// errors. As with ParseText, the tables' map keys and Workload are
// substrings of text.
func ParseIntervalsText(name, text string) (*IntervalTable, error) {
	t := &IntervalTable{}
	s := scanner{name: name, text: text}
	var (
		cur     *IntervalWindow
		curRecs int
		// The current window's duplicate scope starts after its
		// directive: line scopeLine, ending at byte scopeOff.
		scopeOff, scopeLine int
		wlLine              int
	)
	closeWindow := func() error {
		if cur != nil && curRecs == 0 {
			return fmt.Errorf("%s:%d: window %d has no records", name, s.lineNo, cur.Index)
		}
		return nil
	}
	for {
		ok, err := s.scan()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if s.nf == 0 {
			continue
		}
		fields, lineNo := s.f[:min(s.nf, maxFields)], s.lineNo
		if fields[0][0] == '#' {
			// Directives are "# window ..." / "# workload ..." with the
			// keyword as its own field; anything else is a comment.
			if fields[0] != "#" || s.nf < 2 {
				continue
			}
			switch fields[1] {
			case "window":
				if s.nf != 5 {
					return nil, fmt.Errorf("%s:%d: want '# window <idx> <start> <end>'", name, lineNo)
				}
				idx, err := strconv.Atoi(fields[2])
				if err != nil || idx < 0 {
					return nil, fmt.Errorf("%s:%d: bad window index %q", name, lineNo, fields[2])
				}
				start, err := strconv.ParseUint(fields[3], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad window start %q", name, lineNo, fields[3])
				}
				end, err := strconv.ParseUint(fields[4], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad window end %q", name, lineNo, fields[4])
				}
				if idx != len(t.Windows) {
					return nil, fmt.Errorf("%s:%d: window index %d out of sequence (want %d)",
						name, lineNo, idx, len(t.Windows))
				}
				if start >= end {
					return nil, fmt.Errorf("%s:%d: window %d span [%d,%d) is empty", name, lineNo, idx, start, end)
				}
				if n := len(t.Windows); n > 0 && start < t.Windows[n-1].End {
					return nil, fmt.Errorf("%s:%d: window %d starts at %d, inside window %d [%d,%d)",
						name, lineNo, idx, start, n-1, t.Windows[n-1].Start, t.Windows[n-1].End)
				}
				if err := closeWindow(); err != nil {
					return nil, err
				}
				t.Windows = append(t.Windows, IntervalWindow{
					Index: idx, Start: start, End: end, Inputs: s.newInputs(true),
				})
				cur = &t.Windows[len(t.Windows)-1]
				curRecs = 0
				scopeOff, scopeLine = s.off, lineNo
			case "workload":
				if s.nf != 3 {
					return nil, fmt.Errorf("%s:%d: want '# workload <name>'", name, lineNo)
				}
				if t.Workload != "" && t.Workload != fields[2] {
					return nil, fmt.Errorf("%s:%d: workload %q conflicts with %q (line %d)",
						name, lineNo, fields[2], t.Workload, wlLine)
				}
				t.Workload = fields[2]
				wlLine = lineNo
			}
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("%s:%d: record before first '# window' directive", name, lineNo)
		}
		if err := s.record(cur.Inputs, scopeOff, scopeLine); err != nil {
			return nil, err
		}
		curRecs++
	}
	if err := closeWindow(); err != nil {
		return nil, err
	}
	if len(t.Windows) == 0 {
		return nil, fmt.Errorf("%s: no '# window' directives (not an interval table)", name)
	}
	return t, nil
}

// ReadIntervalFile parses the multi-window pAVF table at path.
func ReadIntervalFile(path string) (*IntervalTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseIntervals(path, f)
}

// NamedIntervals pairs a workload name with its parsed interval table.
type NamedIntervals struct {
	Name  string
	Table *IntervalTable
}

// ReadIntervalDir parses every file in dir matching glob as a
// multi-window pAVF table. A table's "# workload" directive names the
// workload; a table without one is named after its file with the
// extension stripped (the same rule as ReadDir). The final names must
// be unique across the matched files.
func ReadIntervalDir(dir, glob string) ([]NamedIntervals, error) {
	matches, err := filepath.Glob(filepath.Join(dir, glob))
	if err != nil {
		return nil, fmt.Errorf("bad glob %q: %w", glob, err)
	}
	sort.Strings(matches)
	var out []NamedIntervals
	nameSrc := make(map[string]string) // workload name -> file it came from
	for _, path := range matches {
		if fi, err := os.Stat(path); err != nil || fi.IsDir() {
			continue
		}
		t, err := ReadIntervalFile(path)
		if err != nil {
			return nil, err
		}
		base := filepath.Base(path)
		name := t.Workload
		if name == "" {
			name = strings.TrimSuffix(base, filepath.Ext(base))
		}
		if prev, ok := nameSrc[name]; ok {
			return nil, fmt.Errorf("workload name %q is ambiguous: %s and %s both match %q",
				name, prev, base, glob)
		}
		nameSrc[name] = base
		out = append(out, NamedIntervals{Name: name, Table: t})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no interval tables match %s in %s", glob, dir)
	}
	return out, nil
}

// WriteIntervals renders t in the ParseIntervals format: an optional
// workload directive, then each window's directive followed by its
// sorted pAVF table. Returns the record-line count (directives
// excluded).
func WriteIntervals(w io.Writer, t *IntervalTable) (int, error) {
	if t.Workload != "" {
		if _, err := fmt.Fprintf(w, "# workload %s\n", t.Workload); err != nil {
			return 0, err
		}
	}
	total := 0
	for _, win := range t.Windows {
		if _, err := fmt.Fprintf(w, "# window %d %d %d\n", win.Index, win.Start, win.End); err != nil {
			return total, err
		}
		n, err := Write(w, win.Inputs)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
