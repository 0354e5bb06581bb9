package cliutil

import (
	"context"
	"testing"

	"seqavf/internal/artifact"
	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/obs"
)

// TestSolveWithStoreDispositions walks SolveWithStore through its three
// starts on one store: a cold solve of a design, a warm restore of the
// same design, and an incremental re-solve of an edit to it (same name,
// new fingerprint). Each start is counted once, and the incremental
// result matches a cold solve of the edited design.
func TestSolveWithStoreDispositions(t *testing.T) {
	st, err := artifact.Open(t.TempDir(), artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := graphtest.Small(3)
	cfg.Fubs = 4
	base, err := graphtest.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, edited, _, err := base.ApplyEdit(graphtest.EditAddFlop, 5)
	if err != nil {
		t.Fatal(err)
	}
	counters := []string{"artifact.cold_start", "artifact.warm_start", "artifact.incremental_start"}
	for i, tc := range []struct {
		g    *graph.Graph
		kind string
	}{{base.Graph, "cold"}, {base.Graph, "warm"}, {edited, "incremental"}} {
		a, err := core.NewAnalyzer(tc.g, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		res, disp, err := SolveWithStore(context.Background(), "test", st, a, halfInputs(a), reg)
		if err != nil {
			t.Fatalf("%s start: %v", tc.kind, err)
		}
		if disp.Kind != tc.kind {
			t.Fatalf("start %d: disposition %q, want %q", i, disp.Kind, tc.kind)
		}
		for j, name := range counters {
			want := int64(0)
			if j == i {
				want = 1
			}
			if got := reg.Counter(name).Load(); got != want {
				t.Errorf("%s start: %s = %d, want %d", tc.kind, name, got, want)
			}
		}
		if tc.kind != "incremental" {
			continue
		}
		if ist := disp.Incremental; ist == nil || ist.FubsDirty == 0 || ist.FubsDirty == ist.FubsTotal {
			t.Fatalf("incremental start stats %+v, want some but not all FUBs dirty", ist)
		}
		cold, err := a.Solve(halfInputs(a))
		if err != nil {
			t.Fatal(err)
		}
		if d := core.MaxAbsDiff(res, cold); d != 0 {
			t.Fatalf("incremental start differs from a cold solve by %v", d)
		}
	}
}

// halfInputs assigns 0.5 to every structure port of a.
func halfInputs(a *core.Analyzer) *core.Inputs {
	in := core.NewInputs()
	for _, sp := range a.ReadPortTerms() {
		in.ReadPorts[sp] = 0.5
	}
	for _, sp := range a.WritePortTerms() {
		in.WritePorts[sp] = 0.5
	}
	return in
}
