package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"seqavf/cmd/internal/cliutil"
	"seqavf/internal/obs"
	"seqavf/internal/sweep"
)

// TestRunOutputIsEncodingJSON pins sweeprun's bytes, not just its values:
// with -nodes, the plain and the -windows report each equal encoding/json's
// indented rendering of the report they decode to.
func TestRunOutputIsEncodingJSON(t *testing.T) {
	for _, tc := range []struct {
		name    string
		glob    string
		windows bool
		rep     any
	}{
		{"sweep", "*.pavf", false, new(sweep.SweepResponse)},
		{"intervals", "*.ipavf", true, new(sweep.IntervalSweepResponse)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fixture(t, dir)
			out := filepath.Join(dir, "report.json")
			if err := run(obs.New(), &cliutil.Artifacts{}, filepath.Join(dir, "design.nl"), dir, tc.glob,
				1, testLoop, testPseudo, true, tc.windows, out); err != nil {
				t.Fatalf("run: %v", err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(got))
			dec.DisallowUnknownFields()
			if err := dec.Decode(tc.rep); err != nil {
				t.Fatalf("report does not decode into %T: %v", tc.rep, err)
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			if err := enc.Encode(tc.rep); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("sweeprun output differs from encoding/json's rendering:\ngot\n%s\nwant\n%s", got, want.Bytes())
			}
			if !bytes.Contains(got, []byte(`"seqavf": {`)) {
				t.Fatalf("report carries no per-node values:\n%s", got)
			}
		})
	}
}
