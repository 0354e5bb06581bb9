package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"seqavf/cmd/internal/cliutil"
	"seqavf/internal/obs"
	"seqavf/internal/server"
)

// TestRunWarmStartMatchesCold: with -artifacts, a second run on the same
// design restores the solve and the plan from the store, and its report
// equals the cold run's apart from the timing fields.
func TestRunWarmStartMatchesCold(t *testing.T) {
	dir := t.TempDir()
	fixture(t, dir)
	arts := &cliutil.Artifacts{Dir: filepath.Join(dir, "store")}
	var reps [2]server.SweepResponse
	for i := range reps {
		reg := obs.New()
		out := filepath.Join(dir, "report.json")
		if err := run(reg, arts, filepath.Join(dir, "design.nl"), dir, "*.pavf",
			1, testLoop, testPseudo, true, false, out); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		decodeFile(t, out, &reps[i])
		reps[i].ElapsedMS, reps[i].PerSec = 0, 0
		if i == 1 && reg.Snapshot().Counters["artifact.warm_start"] != 1 {
			t.Fatalf("second run did not warm-start: counters %v", reg.Snapshot().Counters)
		}
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Fatalf("warm report differs from cold:\ncold %+v\nwarm %+v", reps[0], reps[1])
	}
}

// TestRunErrors: a missing netlist, a glob matching no table, and a
// malformed table each fail the run with an error naming the cause.
func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	fixture(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "bad.txt"), []byte("R malformed\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	nl := filepath.Join(dir, "design.nl")
	for _, tc := range []struct {
		name, netlist, glob string
		windows             bool
		want                string
	}{
		{"missing netlist", filepath.Join(dir, "nope.nl"), "*.pavf", false, "nope.nl"},
		{"no tables", nl, "*.none", false, "*.none"},
		{"no interval tables", nl, "*.none", true, "*.none"},
		{"malformed table", nl, "bad.txt", false, "bad"},
	} {
		err := run(obs.New(), &cliutil.Artifacts{}, tc.netlist, dir, tc.glob,
			1, testLoop, testPseudo, false, tc.windows, filepath.Join(dir, "out.json"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to name %q", tc.name, err, tc.want)
		}
	}
}

// decodeFile decodes the JSON report at path into v.
func decodeFile(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
