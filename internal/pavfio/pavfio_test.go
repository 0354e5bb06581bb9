package pavfio

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"seqavf/internal/core"
)

const sampleTable = `# measured on tinycore
R RegFile.rd0 0.125
R RegFile.rd1 0.0625
W RegFile.wr0 0.25
S RegFile 0.5
S IMem 1
`

func TestParseSample(t *testing.T) {
	in, err := Parse("sample", strings.NewReader(sampleTable))
	if err != nil {
		t.Fatal(err)
	}
	if got := in.ReadPorts[core.StructPort{Struct: "RegFile", Port: "rd0"}]; got != 0.125 {
		t.Fatalf("rd0 = %v", got)
	}
	if got := in.WritePorts[core.StructPort{Struct: "RegFile", Port: "wr0"}]; got != 0.25 {
		t.Fatalf("wr0 = %v", got)
	}
	if got := in.StructAVF["IMem"]; got != 1 {
		t.Fatalf("IMem = %v", got)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, table, wantErr string
	}{
		{"arity", "R RegFile.rd0\n", "want '<R|W|S>"},
		{"badValue", "R RegFile.rd0 zebra\n", "bad value"},
		{"nan", "R RegFile.rd0 NaN\n", "out of [0,1]"},
		{"inf", "W RegFile.wr0 +Inf\n", "out of [0,1]"},
		{"negative", "S RegFile -0.1\n", "out of [0,1]"},
		{"above1", "S RegFile 1.5\n", "out of [0,1]"},
		{"duplicate", "R A.p 0.1\nR A.p 0.2\n", "duplicate"},
		{"noDot", "R RegFile 0.1\n", "not Struct.port"},
		{"unknown", "X RegFile.rd0 0.1\n", "unknown record"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("t", strings.NewReader(tc.table))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseLineTooLong(t *testing.T) {
	long := "# " + strings.Repeat("x", MaxLineBytes+1)
	_, err := Parse("t", strings.NewReader(long))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v", err)
	}
}

// TestParseLongLineGrowsBuffer: a record line far past the scanner's
// starting buffer (but under MaxLineBytes) still parses, for both the
// single-window and the interval parser.
func TestParseLongLineGrowsBuffer(t *testing.T) {
	port := strings.Repeat("p", 100<<10)
	line := "R A." + port + " 0.25\n"
	in, err := Parse("t", strings.NewReader("# long\n"+line))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := in.ReadPorts[core.StructPort{Struct: "A", Port: port}]; got != 0.25 {
		t.Fatalf("Parse: long-named port = %v, want 0.25", got)
	}
	tab, err := ParseIntervals("t", strings.NewReader("# window 0 0 10\n"+line))
	if err != nil {
		t.Fatalf("ParseIntervals: %v", err)
	}
	if got := tab.Windows[0].Inputs.ReadPorts[core.StructPort{Struct: "A", Port: port}]; got != 0.25 {
		t.Fatalf("ParseIntervals: long-named port = %v, want 0.25", got)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	in, err := Parse("sample", strings.NewReader(sampleTable))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	n, err := Write(&b, in)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("wrote %d lines, want 5", n)
	}
	back, err := Parse("roundtrip", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, back) {
		t.Fatalf("round trip mismatch:\n%v\n%v", in, back)
	}
}

func TestReadDir(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"b.pavf", "a.pavf"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte(sampleTable), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadDir(dir, "*.pavf")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("workloads = %+v", got)
	}
	if _, err := ReadDir(dir, "*.nope"); err == nil {
		t.Fatal("empty match set accepted")
	}
}

func TestReadDirAmbiguousNames(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"md5.pavf", "md5.txt"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte(sampleTable), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ReadDir(dir, "md5.*"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("err = %v", err)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.pavf")); err == nil {
		t.Fatal("missing file accepted")
	}
}
