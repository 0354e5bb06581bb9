package pavfio

// The reference parsers: Parse, applyRecord and ParseIntervals as they
// were before the in-memory scanner, kept verbatim (bar the names) as
// the oracle FuzzParseMatchesOracle holds the production parsers to.
// They stream through a bufio.Scanner, split lines with strings.Fields
// and track duplicates in a per-table map of first lines.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"seqavf/internal/core"
)

// initLineBytes is the reference parsers' starting scanner buffer.
const initLineBytes = 4 << 10

// oracleParse is the reference Parse.
func oracleParse(name string, r io.Reader) (*core.Inputs, error) {
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
		if err := oracleApplyRecord(name, lineNo, fields, in, firstLine); err != nil {
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

// oracleApplyRecord is the reference applyRecord.
func oracleApplyRecord(name string, lineNo int, fields []string, in *core.Inputs, firstLine map[string]int) error {
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

// oracleParseIntervals is the reference ParseIntervals.
func oracleParseIntervals(name string, r io.Reader) (*IntervalTable, error) {
	t := &IntervalTable{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, initLineBytes), MaxLineBytes)
	var (
		cur       *IntervalWindow
		curRecs   int
		firstLine map[string]int
		lineNo    int
		wlLine    int
	)
	closeWindow := func() error {
		if cur != nil && curRecs == 0 {
			return fmt.Errorf("%s:%d: window %d has no records", name, lineNo, cur.Index)
		}
		return nil
	}
	for sc.Scan() {
		lineNo++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if strings.HasPrefix(fields[0], "#") {
			// Directives are "# window ..." / "# workload ..." with the
			// keyword as its own field; anything else is a comment.
			if fields[0] != "#" || len(fields) < 2 {
				continue
			}
			switch fields[1] {
			case "window":
				if len(fields) != 5 {
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
					Index: idx, Start: start, End: end, Inputs: core.NewInputs(),
				})
				cur = &t.Windows[len(t.Windows)-1]
				curRecs = 0
				firstLine = make(map[string]int)
			case "workload":
				if len(fields) != 3 {
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
		if err := oracleApplyRecord(name, lineNo, fields, cur.Inputs, firstLine); err != nil {
			return nil, err
		}
		curRecs++
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return nil, fmt.Errorf("%s:%d: line exceeds %d bytes (not a pAVF table?)", name, lineNo+1, MaxLineBytes)
		}
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := closeWindow(); err != nil {
		return nil, err
	}
	if len(t.Windows) == 0 {
		return nil, fmt.Errorf("%s: no '# window' directives (not an interval table)", name)
	}
	return t, nil
}
