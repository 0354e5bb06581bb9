package pavfio

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seqavf/internal/core"
)

func TestPAVFRoundTrip(t *testing.T) {
	in := core.NewInputs()
	in.ReadPorts[core.StructPort{Struct: "ROB", Port: "rd0"}] = 0.25
	in.WritePorts[core.StructPort{Struct: "ROB", Port: "wr0"}] = 0.125
	in.StructAVF["ROB"] = 0.5

	var sb strings.Builder
	n, err := Write(&sb, in)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if n != 3 {
		t.Fatalf("Write wrote %d lines, want 3", n)
	}
	path := filepath.Join(t.TempDir(), "pavf.txt")
	if err := os.WriteFile(path, []byte("# comment\n\n"+sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if v := got.ReadPorts[core.StructPort{Struct: "ROB", Port: "rd0"}]; v != 0.25 {
		t.Errorf("read port = %v, want 0.25", v)
	}
	if v := got.WritePorts[core.StructPort{Struct: "ROB", Port: "wr0"}]; v != 0.125 {
		t.Errorf("write port = %v, want 0.125", v)
	}
	if v := got.StructAVF["ROB"]; v != 0.5 {
		t.Errorf("struct AVF = %v, want 0.5", v)
	}
}

// TestParsePAVFRejectsBadValues: AVFs are probabilities. Every non-finite
// or out-of-[0,1] value must be rejected with a file:line error — a single
// accepted NaN poisons the capped sum of every node the port reaches.
func TestParsePAVFRejectsBadValues(t *testing.T) {
	cases := []struct {
		name  string
		table string
		want  string // substring of the error
	}{
		{"NaN read", "R IQ.rd NaN\n", "IQ-nan:1"},
		{"NaN struct", "S IQ nan\n", "IQ-nan:1"},
		{"+Inf", "W IQ.wr +Inf\n", "IQ-nan:1"},
		{"-Inf", "R IQ.rd -Inf\n", "IQ-nan:1"},
		{"negative", "R IQ.rd -0.001\n", "IQ-nan:1"},
		{"above one", "# ok\nW IQ.wr 1.000001\n", "IQ-nan:2"},
		{"huge exponent", "S IQ 1e300\n", "IQ-nan:1"},
		{"negative zero ok", "R IQ.rd -0.0\n", ""},
		{"exact one ok", "R IQ.rd 1\nW IQ.wr 0\nS IQ 1.0\n", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("IQ-nan", strings.NewReader(tc.table))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("rejected valid table %q: %v", tc.table, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted %q", tc.table)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not carry file:line %q", err, tc.want)
			}
		})
	}
}

// TestParsePAVFRejectsDuplicates: a port or structure measured twice in one
// table is a merge mistake, not a legitimate override.
func TestParsePAVFRejectsDuplicates(t *testing.T) {
	cases := []struct {
		name  string
		table string
	}{
		{"duplicate R", "R IQ.rd 0.5\nR IQ.rd 0.25\n"},
		{"duplicate W", "W IQ.wr 0.5\n# noise\nW IQ.wr 0.5\n"},
		{"duplicate S", "S IQ 0.5\nS IQ 0.5\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("dup", strings.NewReader(tc.table))
			if err == nil {
				t.Fatalf("accepted table with %s", tc.name)
			}
			if !strings.Contains(err.Error(), "duplicate") || !strings.Contains(err.Error(), "line 1") {
				t.Fatalf("error %q does not report the duplicate and its first line", err)
			}
		})
	}
	// Same port name under different record kinds is legitimate: R and W
	// index different tables, and S shares the struct's bare name.
	if _, err := Parse("ok", strings.NewReader("R IQ.rd 0.5\nW IQ.rd 0.5\nS IQ.rd 0.5\n")); err != nil {
		t.Fatalf("rejected distinct record kinds for one name: %v", err)
	}
}

// TestReadPAVFDirNameCollision: md5.pavf and md5.txt both strip to
// workload "md5"; the sweep must refuse the ambiguity instead of emitting
// two rows with one name.
func TestReadPAVFDirNameCollision(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"md5.pavf", "md5.txt", "zlib.pavf"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("R IQ.rd 0.5\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := ReadDir(dir, "*")
	if err == nil {
		t.Fatal("ReadDir accepted two files mapping to workload \"md5\"")
	}
	for _, want := range []string{"md5.pavf", "md5.txt", `"md5"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("collision error %q does not name %s", err, want)
		}
	}
	// Disambiguated by the glob, the same directory is fine.
	got, err := ReadDir(dir, "*.pavf")
	if err != nil {
		t.Fatalf("ReadDir with disambiguating glob: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d workloads, want 2", len(got))
	}
}

func TestReadPAVFDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Written out of sorted order on purpose; named after workloads.
	write("zlib.pavf", "R IQ.rd 0.75\n")
	write("bzip2.pavf", "R IQ.rd 0.25\n")
	write("notes.txt", "not a pavf table\n")

	got, err := ReadDir(dir, "*.pavf")
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d workloads, want 2", len(got))
	}
	if got[0].Name != "bzip2" || got[1].Name != "zlib" {
		t.Errorf("workloads not sorted by name: %q, %q", got[0].Name, got[1].Name)
	}
	sp := core.StructPort{Struct: "IQ", Port: "rd"}
	if got[0].Inputs.ReadPorts[sp] != 0.25 || got[1].Inputs.ReadPorts[sp] != 0.75 {
		t.Errorf("workload inputs mixed up: %v, %v",
			got[0].Inputs.ReadPorts[sp], got[1].Inputs.ReadPorts[sp])
	}

	if _, err := ReadDir(dir, "*.nope"); err == nil {
		t.Error("ReadDir accepted a glob matching nothing")
	}
	write("broken.pavf", "R malformed\n")
	if _, err := ReadDir(dir, "*.pavf"); err == nil {
		t.Error("ReadDir accepted a directory with a malformed table")
	}
}
