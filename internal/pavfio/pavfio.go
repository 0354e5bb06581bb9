// Package pavfio parses and renders the line-oriented pAVF table format
// shared by the CLIs (acerun/designgen produce it, sartool/sweeprun
// consume it) and the seqavfd sweep service. It is the validation
// choke-point of the ingestion path: every value that reaches
// core.Inputs through this package is finite and in [0,1], so the
// solver's capped term-set sums — min(1, Σ pAVF) — can never be
// poisoned by a NaN, an infinity, or an out-of-range measurement, and a
// long-lived server cannot be corrupted by one malformed upload.
//
// Tables are parsed from text held in memory (ParseText,
// ParseIntervalsText; Parse and ParseIntervals read a Reader to the end
// first). The parsed map keys and workload names are substrings of that
// text, so parsed Inputs keep the whole table text alive.
package pavfio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"seqavf/internal/core"
)

// MaxLineBytes bounds one pAVF table line: a line of MaxLineBytes bytes
// or more, not counting its newline, is rejected. Machine-generated
// tables with deeply hierarchical port names can run long; anything past
// this limit is not a pAVF table.
const MaxLineBytes = 4 << 20

// Parse reads r to the end and parses it as a pAVF table; see ParseText
// for the format. Read errors are reported as "name: err".
func Parse(name string, r io.Reader) (*core.Inputs, error) {
	text, err := readText(name, r)
	if err != nil {
		return nil, err
	}
	return ParseText(name, text)
}

// ParseText parses the line-oriented pAVF table consumed by sartool and
// produced by acerun/designgen:
//
//	R <Struct>.<port> <pAVF_R>
//	W <Struct>.<port> <pAVF_W>
//	S <Struct> <structure AVF>
//
// Blank lines and #-comments are skipped. name labels the source in error
// messages.
//
// Every value is validated on the way in: an AVF is a probability, so
// NaN, infinities, and anything outside [0,1] are rejected with a
// file:line error rather than handed to the solver, where a single NaN
// would poison the capped term-set sums of every downstream node.
// Duplicate records for the same port or structure are also errors —
// silent last-wins hides measurement-merge mistakes.
//
// The returned map keys are substrings of text, so the Inputs keep text
// alive for as long as they live.
func ParseText(name, text string) (*core.Inputs, error) {
	s := scanner{name: name, text: text}
	in := s.newInputs(false)
	for {
		ok, err := s.scan()
		if err != nil {
			return nil, err
		}
		if !ok {
			return in, nil
		}
		if s.nf == 0 || s.f[0][0] == '#' {
			continue
		}
		if err := s.record(in, 0, 0); err != nil {
			return nil, err
		}
	}
}

// ReadFile parses the pAVF table at path. See Parse for the format.
func ReadFile(path string) (*core.Inputs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(path, f)
}

// NamedInputs pairs a workload name with its parsed pAVF tables.
type NamedInputs struct {
	Name   string
	Inputs *core.Inputs
}

// ReadDir parses every file in dir matching glob (filepath.Match
// syntax) as a pAVF table, sorted by file name. The workload name is the
// file base without its extension. An empty match set is an error — a
// sweep over zero workloads is almost always a mistyped glob.
func ReadDir(dir, glob string) ([]NamedInputs, error) {
	matches, err := filepath.Glob(filepath.Join(dir, glob))
	if err != nil {
		return nil, fmt.Errorf("bad glob %q: %w", glob, err)
	}
	sort.Strings(matches)
	var out []NamedInputs
	nameSrc := make(map[string]string) // workload name -> file it came from
	for _, path := range matches {
		if fi, err := os.Stat(path); err != nil || fi.IsDir() {
			continue
		}
		in, err := ReadFile(path)
		if err != nil {
			return nil, err
		}
		base := filepath.Base(path)
		name := strings.TrimSuffix(base, filepath.Ext(base))
		// Stripping the extension must stay injective over the matched
		// files: md5.pavf and md5.txt would otherwise both report as
		// workload "md5" and silently duplicate sweep rows.
		if prev, ok := nameSrc[name]; ok {
			return nil, fmt.Errorf("workload name %q is ambiguous: %s and %s both match %q",
				name, prev, base, glob)
		}
		nameSrc[name] = base
		out = append(out, NamedInputs{Name: name, Inputs: in})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no pAVF tables match %s in %s", glob, dir)
	}
	return out, nil
}

// Write renders in as a sorted pAVF table in the Parse format.
func Write(w io.Writer, in *core.Inputs) (int, error) {
	lines := make([]string, 0, len(in.ReadPorts)+len(in.WritePorts)+len(in.StructAVF))
	for sp, v := range in.ReadPorts {
		lines = append(lines, fmt.Sprintf("R %s %.6f", sp, v))
	}
	for sp, v := range in.WritePorts {
		lines = append(lines, fmt.Sprintf("W %s %.6f", sp, v))
	}
	for s, v := range in.StructAVF {
		lines = append(lines, fmt.Sprintf("S %s %.6f", s, v))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return 0, err
		}
	}
	return len(lines), nil
}
