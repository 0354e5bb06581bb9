// Package pavfio parses and renders the line-oriented pAVF table format
// shared by the CLIs (acerun/designgen produce it, sartool/sweeprun
// consume it) and the seqavfd sweep service. It is the validation
// choke-point of the ingestion path: every value that reaches
// core.Inputs through this package is finite and in [0,1], so the
// solver's capped term-set sums — min(1, Σ pAVF) — can never be
// poisoned by a NaN, an infinity, or an out-of-range measurement, and a
// long-lived server cannot be corrupted by one malformed upload.
package pavfio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"seqavf/internal/core"
)

// MaxLineBytes bounds one pAVF table line. The default bufio.Scanner
// buffer (64KB) is too small for machine-generated tables with deeply
// hierarchical port names; anything past this limit is not a pAVF table.
const MaxLineBytes = 4 << 20

// initLineBytes is the scanner's starting buffer. Table lines are short,
// so most tables never outgrow it; the scanner doubles it on demand up
// to MaxLineBytes for the rare long line.
const initLineBytes = 4 << 10

// Parse parses the line-oriented pAVF table consumed by sartool and
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
func Parse(name string, r io.Reader) (*core.Inputs, error) {
	in := core.NewInputs()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, initLineBytes), MaxLineBytes)
	firstLine := make(map[string]int) // "R IQ.rd" -> line of first record
	lineNo := 0
	for sc.Scan() {
		lineNo++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if err := applyRecord(name, lineNo, fields, in, firstLine); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return nil, fmt.Errorf("%s:%d: line exceeds %d bytes (not a pAVF table?)", name, lineNo+1, MaxLineBytes)
		}
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return in, nil
}

// applyRecord validates one R/W/S record line and applies it to in. It
// is the shared validation core of Parse and ParseIntervals: every value
// is checked finite and in [0,1], and duplicates (tracked per table —
// or per window, for interval tables — in firstLine) are rejected.
func applyRecord(name string, lineNo int, fields []string, in *core.Inputs, firstLine map[string]int) error {
	if len(fields) != 3 {
		return fmt.Errorf("%s:%d: want '<R|W|S> <name> <value>'", name, lineNo)
	}
	v, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return fmt.Errorf("%s:%d: bad value %q", name, lineNo, fields[2])
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
		return fmt.Errorf("%s:%d: %s value %v out of [0,1] (AVFs are probabilities)",
			name, lineNo, fields[0], fields[2])
	}
	key := fields[0] + " " + fields[1]
	if prev, dup := firstLine[key]; dup {
		return fmt.Errorf("%s:%d: duplicate %q record (first at line %d)",
			name, lineNo, key, prev)
	}
	firstLine[key] = lineNo
	switch fields[0] {
	case "R", "W":
		st, port, ok := strings.Cut(fields[1], ".")
		if !ok {
			return fmt.Errorf("%s:%d: port %q not Struct.port", name, lineNo, fields[1])
		}
		sp := core.StructPort{Struct: st, Port: port}
		if fields[0] == "R" {
			in.ReadPorts[sp] = v
		} else {
			in.WritePorts[sp] = v
		}
	case "S":
		in.StructAVF[fields[1]] = v
	default:
		return fmt.Errorf("%s:%d: unknown record %q", name, lineNo, fields[0])
	}
	return nil
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
