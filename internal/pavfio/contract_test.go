package pavfio

import (
	"strings"
	"testing"
)

// contractCase is one table and the exact result each parser must
// give it: the full error string, or "" for an accepted table.
type contractCase struct {
	name, table string
	// wantErr is the exact error from Parse, wantIntervalErr from
	// ParseIntervals; "" means the parser accepts the table.
	wantErr, wantIntervalErr string
}

// noWindows is ParseIntervals' error for a table "t" that is a valid
// single-window table: it carries no window directives.
const noWindows = "t: no '# window' directives (not an interval table)"

// TestParseErrorContract pins the full error strings of Parse and
// ParseIntervals — file:line, the offending text, and for duplicates the
// line of the first record — for every rejection class and for the line
// splitting rules the format inherits from bufio.ScanLines and
// strings.Fields (CRLF, tabs, Unicode spaces, no final newline).
func TestParseErrorContract(t *testing.T) {
	for _, tc := range contractCases() {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("t", strings.NewReader(tc.table))
			if got := errString(err); got != tc.wantErr {
				t.Errorf("Parse error\n got %q\nwant %q", got, tc.wantErr)
			}
			_, err = ParseIntervals("t", strings.NewReader(tc.table))
			if got := errString(err); got != tc.wantIntervalErr {
				t.Errorf("ParseIntervals error\n got %q\nwant %q", got, tc.wantIntervalErr)
			}
		})
	}
}

// contractCases are the tables TestParseErrorContract pins; the short
// ones also seed FuzzParseMatchesOracle.
func contractCases() []contractCase {
	long := strings.Repeat("x", MaxLineBytes)
	return []contractCase{
		// Records.
		{"empty", "", "", noWindows},
		{"commentsOnly", "# c\n#x R A.p 2\n\n", "", noWindows},
		{"arityShort", "R RegFile.rd0\n",
			"t:1: want '<R|W|S> <name> <value>'", "t:1: record before first '# window' directive"},
		{"arityLong", "# c\nS A 0.5 extra\n",
			"t:2: want '<R|W|S> <name> <value>'", "t:2: record before first '# window' directive"},
		{"badValue", "# c\nR RegFile.rd0 zebra\n", `t:2: bad value "zebra"`, "t:2: record before first '# window' directive"},
		{"overflow", "S A 1e400\n", `t:1: bad value "1e400"`, "t:1: record before first '# window' directive"},
		{"nan", "R A.p NaN\n", "t:1: R value NaN out of [0,1] (AVFs are probabilities)", "t:1: record before first '# window' directive"},
		{"inf", "W RegFile.wr0 +Inf\n", "t:1: W value +Inf out of [0,1] (AVFs are probabilities)", "t:1: record before first '# window' directive"},
		{"negative", "S RegFile -0.1\n", "t:1: S value -0.1 out of [0,1] (AVFs are probabilities)", "t:1: record before first '# window' directive"},
		{"rangeBeforeKind", "X A.p 2\n", "t:1: X value 2 out of [0,1] (AVFs are probabilities)", "t:1: record before first '# window' directive"},
		{"noDot", "R RegFile 0.1\n", `t:1: port "RegFile" not Struct.port`, "t:1: record before first '# window' directive"},
		{"unknown", "X RegFile.rd0 0.1\n", `t:1: unknown record "X"`, "t:1: record before first '# window' directive"},
		{"hashComment", "#x R A.p 2\nR A.p 0.5 extra\n", "t:2: want '<R|W|S> <name> <value>'", "t:2: record before first '# window' directive"},
		{"emptyStructAccepted", "R .p 0.1\nW A. 1\n", "", "t:1: record before first '# window' directive"},
		{"readAndWriteSamePort", "R A.p 0.1\nW A.p 0.2\n", "", "t:1: record before first '# window' directive"},

		// Duplicates, with the first record's line.
		{"duplicate", "R A.p 0.1\n\n# c\nR A.p 0.2\n", `t:4: duplicate "R A.p" record (first at line 1)`, "t:1: record before first '# window' directive"},
		{"duplicateAfterOthers", "S B 0.5\nW A.p 0.1\nS C 0.5\nW A.p 0.1\n", `t:4: duplicate "W A.p" record (first at line 2)`, "t:1: record before first '# window' directive"},
		{"duplicateDottedPort", "R A.p.q 0.1\nR A.p 0.1\nR A.p.q 0.1\n", `t:3: duplicate "R A.p.q" record (first at line 1)`, "t:1: record before first '# window' directive"},
		{"rangeBeforeDuplicate", "R A.p 0.1\nR A.p 2\n", "t:2: R value 2 out of [0,1] (AVFs are probabilities)", "t:1: record before first '# window' directive"},
		{"crlfDuplicate", "S A 0.1\r\nS B 0.2\r\nS A 0.3\r\n", `t:3: duplicate "S A" record (first at line 1)`, "t:1: record before first '# window' directive"},
		{"tabDuplicate", "W\tA.p\t0.5\nW A.p 0.5\n", `t:2: duplicate "W A.p" record (first at line 1)`, "t:1: record before first '# window' directive"},
		{"controlSpaceDuplicate", "S\vA\f0.5\nS A 0.5\n", `t:2: duplicate "S A" record (first at line 1)`, "t:1: record before first '# window' directive"},
		{"nbspDuplicate", "R\u00a0A.p\u00a00.5\nR A.p 0.5\n", `t:2: duplicate "R A.p" record (first at line 1)`, "t:1: record before first '# window' directive"},
		{"nelDuplicate", "S B 0.1\nS\u0085B\u00850.5\n", `t:2: duplicate "S B" record (first at line 1)`, "t:1: record before first '# window' directive"},
		{"nbspInsideName", "S A\u00a0B 0.5\n", "t:1: want '<R|W|S> <name> <value>'", "t:1: record before first '# window' directive"},
		{"unicodeName", "S Å 0.5\nS Å 0.6\n", `t:2: duplicate "S Å" record (first at line 1)`, "t:1: record before first '# window' directive"},
		{"invalidUTF8Name", "S \xff 0.5\nS \xff 0.6\n", `t:2: duplicate "S \xff" record (first at line 1)`, "t:1: record before first '# window' directive"},
		{"noTrailingNewline", "S A 0.1\nS A 0.2", `t:2: duplicate "S A" record (first at line 1)`, "t:1: record before first '# window' directive"},
		{"crlfAccepted", "R A.p 0.1\r\nS A 1\r\n", "", "t:1: record before first '# window' directive"},

		// The line cap: a line of MaxLineBytes bytes or more is rejected
		// at its own line number, after every earlier line was accepted.
		{"lineExceeds", "# c\n# " + long + "\n",
			"t:2: line exceeds 4194304 bytes (not a pAVF table?)", "t:2: line exceeds 4194304 bytes (not a pAVF table?)"},
		{"lineExactlyMax", "# c\n\n" + long + "\nS B 0.1\n",
			"t:3: line exceeds 4194304 bytes (not a pAVF table?)", "t:3: line exceeds 4194304 bytes (not a pAVF table?)"},
		{"lineJustUnderMax", "#" + long[:MaxLineBytes-2] + "\nS A 2\n",
			"t:2: S value 2 out of [0,1] (AVFs are probabilities)", "t:2: record before first '# window' directive"},
		{"lastLineJustUnderMax", "S A 0.1\n#" + long[:MaxLineBytes-2], "", "t:1: record before first '# window' directive"},
		{"errorBeforeLongLine", "S A 2\n# " + long, "t:1: S value 2 out of [0,1] (AVFs are probabilities)", "t:1: record before first '# window' directive"},

		// Window directives (comments to Parse).
		{"windowAccepted", "# workload md5\n# window 0 0 10\nR A.p 0.1\n", "", ""},
		{"windowTabsAccepted", "#\twindow\t0\t0\t10\r\nR A.p 0.1\r\n", "", ""},
		{"windowNBSPAccepted", "#\u00a0window\u00a00 0 10\nR A.p 0.1", "", ""},
		{"windowSignedIndex", "# window +0 0 10\nR A.p 0.1\n", "", ""},
		{"windowNoSpaceIsComment", "#window 0 0 10\nR A.p 0.1\n", "", "t:2: record before first '# window' directive"},
		{"windowCaseIsComment", "# Window 0 0 10\nR A.p 0.1\n", "", "t:2: record before first '# window' directive"},
		{"windowArity", "# window 0 0\n", "", "t:1: want '# window <idx> <start> <end>'"},
		{"windowArityLong", "# window 0 0 10 20\n", "", "t:1: want '# window <idx> <start> <end>'"},
		{"windowBadIndex", "# window x 0 10\nR A.p 0.1\n", "", `t:1: bad window index "x"`},
		{"windowNegIndex", "# window -1 0 10\nR A.p 0.1\n", "", `t:1: bad window index "-1"`},
		{"windowBadStart", "# window 0 -1 10\nR A.p 0.1\n", "", `t:1: bad window start "-1"`},
		{"windowBadEnd", "# window 0 0 x\nR A.p 0.1\n", "", `t:1: bad window end "x"`},
		{"windowOutOfSequence", "# window 1 0 10\nR A.p 0.1\n", "", "t:1: window index 1 out of sequence (want 0)"},
		{"windowSkipped", "# window 0 0 10\nR A.p 0.1\n# window 2 10 20\nR A.p 0.1\n", `t:4: duplicate "R A.p" record (first at line 2)`,
			"t:3: window index 2 out of sequence (want 1)"},
		{"windowEmptySpan", "# window 0 10 10\nR A.p 0.1\n", "", "t:1: window 0 span [10,10) is empty"},
		{"windowOverlap", "# window 0 0 10\nR A.p 0.1\n# window 1 5 20\nR A.p 0.1\n", `t:4: duplicate "R A.p" record (first at line 2)`,
			"t:3: window 1 starts at 5, inside window 0 [0,10)"},
		{"windowEmpty", "# window 0 0 10\n# window 1 10 20\nR A.p 0.1\n", "", "t:2: window 0 has no records"},
		{"windowEmptyBadNext", "# window 0 0 10\n# window 2 10 20\n", "", "t:2: window index 2 out of sequence (want 1)"},
		{"windowEmptyLast", "# window 0 0 10\nR A.p 0.1\n# window 1 10 20\n\n# trailing\n", "", "t:5: window 1 has no records"},
		{"windowEmptyLastNoNewline", "# window 0 0 10", "", "t:1: window 0 has no records"},
		{"workloadArity", "# workload\n# window 0 0 10\nR A.p 0.1\n", "", "t:1: want '# workload <name>'"},
		{"workloadArityLong", "# workload a b\n", "", "t:1: want '# workload <name>'"},
		{"workloadConflict", "# workload a\n# workload a\n# window 0 0 10\nR A.p 0.1\n# workload b\n", "",
			`t:5: workload "b" conflicts with "a" (line 2)`},
		{"windowDuplicate", "# window 0 0 10\r\nS A 0.1\r\nS A 0.2\r\n", `t:3: duplicate "S A" record (first at line 2)`,
			`t:3: duplicate "S A" record (first at line 2)`},
		{"windowDuplicateScoped", "# window 0 0 10\nS A 0.1\n# window 1 10 20\n# c\nS B 0.2\nS A 0.3\nS A 0.4\n", `t:6: duplicate "S A" record (first at line 2)`,
			`t:7: duplicate "S A" record (first at line 6)`},
		{"windowRecordError", "# window 0 0 10\nR A.p 0.1\n# window 1 10 20\nR A.p 1.5\n", "t:4: R value 1.5 out of [0,1] (AVFs are probabilities)",
			"t:4: R value 1.5 out of [0,1] (AVFs are probabilities)"},
		{"windowLineExceeds", "# window 0 0 10\nR A.p 0.1\n# " + long, "t:3: line exceeds 4194304 bytes (not a pAVF table?)",
			"t:3: line exceeds 4194304 bytes (not a pAVF table?)"},
	}
}

// errString is err's text, or "" for nil.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
