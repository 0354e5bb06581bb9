package pavfio

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"seqavf/internal/core"
)

// maxFields is the most fields any line form has (a window directive);
// a line with more is rejected on its field count alone, so only the
// first maxFields are kept.
const maxFields = 5

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// scanner walks a pAVF table held in memory, one line at a time. Lines
// are split as bufio.Scanner with ScanLines splits them (on '\n', no
// empty last line after a final newline) and fields as strings.Fields
// splits them. Fields are substrings of the text, so scanning allocates
// nothing unless a line holds a non-ASCII byte.
type scanner struct {
	name   string // labels the source in errors
	text   string
	off    int // byte offset of the next line
	lineNo int // number of the current line
	nf     int // field count of the current line
	f      [maxFields]string
}

// scan advances to the next line and splits it into fields. It returns
// false at the end of the text. A line of MaxLineBytes bytes or more is
// an error: a bufio.Scanner with a MaxLineBytes buffer must hold a line
// and its newline.
func (s *scanner) scan() (bool, error) {
	line, ok := s.line()
	if !ok {
		return false, nil
	}
	if len(line) >= MaxLineBytes {
		return false, fmt.Errorf("%s:%d: line exceeds %d bytes (not a pAVF table?)", s.name, s.lineNo+1, MaxLineBytes)
	}
	s.lineNo++
	s.split(line)
	return true, nil
}

// line returns the next line and moves past it, or false at the end of
// the text.
func (s *scanner) line() (string, bool) {
	if s.off >= len(s.text) {
		return "", false
	}
	line := s.text[s.off:]
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	s.off += len(line) + 1
	return line, true
}

// split sets the fields of line.
func (s *scanner) split(line string) {
	s.nf = 0
	var seen byte // every byte of the line OR-ed, to spot non-ASCII
	start := -1
	for i := 0; i < len(line); i++ {
		c := line[i]
		seen |= c
		if !asciiSpace[c] {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			s.field(line[start:i])
			start = -1
		}
	}
	if start >= 0 {
		s.field(line[start:])
	}
	if seen >= utf8.RuneSelf {
		// Unicode spaces (U+0085, U+00A0, ...) separate fields too.
		s.nf = 0
		for _, f := range strings.Fields(line) {
			s.field(f)
		}
	}
}

func (s *scanner) field(f string) {
	if s.nf < maxFields {
		s.f[s.nf] = f
	}
	s.nf++
}

// newInputs returns empty Inputs whose maps are sized for the R, W and
// S lines after the current one: up to the next window directive when
// toWindow is set, else to the end of the text. Lines are classed by
// their first byte, and only lines that may be directives are split, so
// the count costs little more than finding the line ends. A miscount
// only resizes a map. The count stops at every line the parser reads
// as a window directive, so one window's count never includes the next
// window's records.
func (s scanner) newInputs(toWindow bool) *core.Inputs {
	var r, w, st int
	for {
		line, ok := s.line()
		if !ok {
			break
		}
		i := 0
		for i < len(line) && asciiSpace[line[i]] {
			i++
		}
		if i+1 < len(line) && asciiSpace[line[i+1]] {
			switch line[i] {
			case 'R':
				r++
			case 'W':
				w++
			case 'S':
				st++
			}
		}
		if toWindow && i < len(line) && (line[i] == '#' || line[i] >= utf8.RuneSelf) {
			if s.split(line); s.nf >= 2 && s.f[0] == "#" && s.f[1] == "window" {
				break
			}
		}
	}
	return &core.Inputs{
		ReadPorts:  make(map[core.StructPort]float64, r),
		WritePorts: make(map[core.StructPort]float64, w),
		StructAVF:  make(map[string]float64, st),
	}
}

// record validates the current line as an R/W/S record and applies it
// to in. Every value is checked finite and in [0,1]. A duplicate is
// caught by its destination map; its error names the line of the first
// record, found by rescanning from the start of the duplicate scope —
// the table, or the current window — at byte offset scopeOff after line
// scopeLine.
func (s *scanner) record(in *core.Inputs, scopeOff, scopeLine int) error {
	if s.nf != 3 {
		return fmt.Errorf("%s:%d: want '<R|W|S> <name> <value>'", s.name, s.lineNo)
	}
	kind, key := s.f[0], s.f[1]
	v, err := strconv.ParseFloat(s.f[2], 64)
	if err != nil {
		return fmt.Errorf("%s:%d: bad value %q", s.name, s.lineNo, s.f[2])
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
		return fmt.Errorf("%s:%d: %s value %v out of [0,1] (AVFs are probabilities)",
			s.name, s.lineNo, kind, s.f[2])
	}
	// A duplicate repeats an applied record, so it is a well-formed R, W
	// or S line: the shape checks below cannot mask one.
	var before, after int
	switch kind {
	case "R", "W":
		st, port, ok := strings.Cut(key, ".")
		if !ok {
			return fmt.Errorf("%s:%d: port %q not Struct.port", s.name, s.lineNo, key)
		}
		m := in.ReadPorts
		if kind == "W" {
			m = in.WritePorts
		}
		before = len(m)
		m[core.StructPort{Struct: st, Port: port}] = v
		after = len(m)
	case "S":
		before = len(in.StructAVF)
		in.StructAVF[key] = v
		after = len(in.StructAVF)
	default:
		return fmt.Errorf("%s:%d: unknown record %q", s.name, s.lineNo, kind)
	}
	if after == before {
		first := scanner{name: s.name, text: s.text, off: scopeOff, lineNo: scopeLine}
		for ok, _ := first.scan(); ok && first.lineNo < s.lineNo; ok, _ = first.scan() {
			if first.nf == 3 && first.f[0] == kind && first.f[1] == key {
				break
			}
		}
		return fmt.Errorf("%s:%d: duplicate %q record (first at line %d)",
			s.name, s.lineNo, kind+" "+key, first.lineNo)
	}
	return nil
}

// readText reads r to the end into one string, copying the bytes once
// when r is an io.WriterTo such as a strings.Reader.
func readText(name string, r io.Reader) (string, error) {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return "", fmt.Errorf("%s: %w", name, err)
	}
	return b.String(), nil
}
