package pavfio

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"seqavf/internal/core"
)

// FuzzParseIntervalTable throws arbitrary bytes at the multi-window
// table parser: it must never panic, and anything it accepts must be
// well-formed — every value finite and in [0,1] (a NaN would poison the
// solver's capped sums downstream), every window non-empty with a
// positive span, windows strictly ordered and non-overlapping with
// sequential indices.
func FuzzParseIntervalTable(f *testing.F) {
	f.Add(sampleIntervals)
	f.Add("# window 0 0 10\nR A.p 0.5\n")
	f.Add("# workload a\n# workload b\n# window 0 0 10\nR A.p 0.5\n")
	f.Add("# window 0 0 10\n# window 1 10 20\nR A.p 0.5\n")
	f.Add("# window 0 0 10\nR A.p 0.5\n# window 1 5 20\nR A.p 0.5\n")
	f.Add("# window 1 0 10\nR A.p 0.5\n")
	f.Add("# window 0 10 10\nR A.p 0.5\n")
	f.Add("# window 0 0 18446744073709551615\nS x NaN\n")
	f.Add("R A.p 0.5\n# window 0 0 10\n")
	f.Add("#window 0 0 10\n# window 0 0 10\nS s 1\n")
	f.Add("# window 0 0 10\nR A.p 0.1\nR A.p 0.1\n")
	f.Fuzz(func(t *testing.T, table string) {
		tab, err := ParseIntervals("fuzz", strings.NewReader(table))
		if err != nil {
			return // rejection is fine; panicking is not
		}
		if len(tab.Windows) == 0 {
			t.Fatalf("accepted table has no windows\ntable:\n%s", table)
		}
		prevEnd := uint64(0)
		for i, w := range tab.Windows {
			if w.Index != i {
				t.Fatalf("window %d carries index %d\ntable:\n%s", i, w.Index, table)
			}
			if w.Start >= w.End {
				t.Fatalf("window %d span [%d,%d) is empty\ntable:\n%s", i, w.Start, w.End, table)
			}
			if i > 0 && w.Start < prevEnd {
				t.Fatalf("window %d overlaps its predecessor\ntable:\n%s", i, table)
			}
			prevEnd = w.End
			if w.Inputs == nil {
				t.Fatalf("window %d has nil inputs\ntable:\n%s", i, table)
			}
			recs := 0
			check := func(what string, v float64) {
				t.Helper()
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
					t.Fatalf("accepted %s value %v outside [0,1] in window %d\ntable:\n%s", what, v, i, table)
				}
			}
			for sp, v := range w.Inputs.ReadPorts {
				check("R "+sp.String(), v)
				recs++
			}
			for sp, v := range w.Inputs.WritePorts {
				check("W "+sp.String(), v)
				recs++
			}
			for s, v := range w.Inputs.StructAVF {
				check("S "+s, v)
				recs++
			}
			if recs == 0 {
				t.Fatalf("accepted window %d has no records\ntable:\n%s", i, table)
			}
		}
	})
}

// FuzzParseMatchesOracle holds Parse and ParseIntervals to the reference
// parsers in oracle_test.go. For any input, each parser and its oracle
// must both reject it with the identical error string, or both accept
// it: Parse with Equal inputs, ParseIntervals with the same workload
// name and, window by window, the same index, span and Equal inputs.
func FuzzParseMatchesOracle(f *testing.F) {
	f.Add(sampleTable)
	f.Add(sampleIntervals)
	for _, tc := range contractCases() {
		if len(tc.table) <= 1<<10 {
			f.Add(tc.table)
		}
	}
	f.Fuzz(func(t *testing.T, table string) {
		in, err := Parse("fuzz", strings.NewReader(table))
		want, wantErr := oracleParse("fuzz", strings.NewReader(table))
		if errString(err) != errString(wantErr) {
			t.Fatalf("Parse error %q, oracle %q\ntable: %q", errString(err), errString(wantErr), table)
		}
		if err == nil && !in.Equal(want) {
			t.Fatalf("Parse inputs differ from the oracle's\ntable: %q", table)
		}

		tab, err := ParseIntervals("fuzz", strings.NewReader(table))
		wantTab, wantErr := oracleParseIntervals("fuzz", strings.NewReader(table))
		if errString(err) != errString(wantErr) {
			t.Fatalf("ParseIntervals error %q, oracle %q\ntable: %q", errString(err), errString(wantErr), table)
		}
		if err != nil {
			return
		}
		if tab.Workload != wantTab.Workload || len(tab.Windows) != len(wantTab.Windows) {
			t.Fatalf("ParseIntervals: workload %q with %d windows, oracle %q with %d\ntable: %q",
				tab.Workload, len(tab.Windows), wantTab.Workload, len(wantTab.Windows), table)
		}
		for i, w := range tab.Windows {
			o := wantTab.Windows[i]
			if w.Index != o.Index || w.Start != o.Start || w.End != o.End || !w.Inputs.Equal(o.Inputs) {
				t.Fatalf("ParseIntervals window %d = {%d [%d,%d)}, oracle {%d [%d,%d)}, inputs equal %v\ntable: %q",
					i, w.Index, w.Start, w.End, o.Index, o.Start, o.End, w.Inputs.Equal(o.Inputs), table)
			}
		}
	})
}

// FuzzParsePavfTable throws arbitrary bytes at the pAVF table parser: it
// must never panic, any table it accepts must carry only finite values in
// [0,1] (the solver's capped sums assume probabilities — one NaN poisons
// every downstream node), and accepted tables must survive a
// write/re-parse round trip with the same port keys and (up to the %.6f
// rendering) the same values.
func FuzzParsePavfTable(f *testing.F) {
	f.Add("R IQ.rd 0.5\nW IQ.wr 0.25\nS IQ 0.9\n")
	f.Add("# comment\n\nR A.b 1\n")
	f.Add("R a.b.c -0.001\nS x NaN\nS y +Inf\n")
	f.Add("R .p 0.5\nS # 2\n")
	f.Add("bogus line\n")
	f.Add("R noport 0.5\n")
	f.Add("R a.b not-a-number\n")
	f.Add("R a.b 0.5\nR a.b 0.5\n")
	f.Add("S s 1e308\nS t -0\n")
	f.Fuzz(func(t *testing.T, table string) {
		in, err := Parse("fuzz", strings.NewReader(table))
		if err != nil {
			return // rejection is fine; panicking is not
		}
		checkRange := func(what string, v float64) {
			t.Helper()
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
				t.Fatalf("accepted table yields %s value %v outside [0,1]\ntable:\n%s", what, v, table)
			}
		}
		for sp, v := range in.ReadPorts {
			checkRange("R "+sp.String(), v)
		}
		for sp, v := range in.WritePorts {
			checkRange("W "+sp.String(), v)
		}
		for s, v := range in.StructAVF {
			checkRange("S "+s, v)
		}
		var buf bytes.Buffer
		n, err := Write(&buf, in)
		if err != nil {
			t.Fatalf("Write failed on parsed inputs: %v", err)
		}
		if want := len(in.ReadPorts) + len(in.WritePorts) + len(in.StructAVF); n != want {
			t.Fatalf("Write wrote %d lines for %d entries", n, want)
		}
		back, err := Parse("roundtrip", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of written table failed: %v\ntable:\n%s", err, buf.String())
		}
		comparePorts(t, "read", in.ReadPorts, back.ReadPorts)
		comparePorts(t, "write", in.WritePorts, back.WritePorts)
		if len(back.StructAVF) != len(in.StructAVF) {
			t.Fatalf("struct AVFs: %d entries became %d", len(in.StructAVF), len(back.StructAVF))
		}
		for s, v := range in.StructAVF {
			got, ok := back.StructAVF[s]
			if !ok {
				t.Fatalf("struct %q lost in round trip", s)
			}
			checkClose(t, "S "+s, v, got)
		}
	})
}

func comparePorts(t *testing.T, kind string, want, got map[core.StructPort]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s ports: %d entries became %d", kind, len(want), len(got))
	}
	for sp, v := range want {
		g, ok := got[sp]
		if !ok {
			t.Fatalf("%s port %v lost in round trip", kind, sp)
		}
		checkClose(t, kind+" "+sp.Struct+"."+sp.Port, v, g)
	}
}

// checkClose compares a value against its %.6f-rendered round trip. All
// accepted values are finite in [0,1], so six fractional digits bound the
// absolute error.
func checkClose(t *testing.T, what string, want, got float64) {
	t.Helper()
	if math.Abs(got-want) > 5e-7 {
		t.Fatalf("%s: %v became %v after round trip", what, want, got)
	}
}
