package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/stats"
	"seqavf/internal/tinycore"
	"seqavf/internal/uarch"
	"seqavf/internal/workload"
)

var updatePin = flag.Bool("update", false, "rewrite the solver pin fixture from current output")

// solvePin records one cold design's solver output bit for bit: the
// monolithic AVFs, and the partitioned relaxation's AVFs, iteration count,
// convergence flag and per-iteration trace. A float vector is stored as
// its IEEE-754 bits, 16 hex digits per entry, so any last-bit drift shows.
type solvePin struct {
	Name           string   `json:"name"`
	SolveAVF       string   `json:"solve_avf"`
	PartitionedAVF string   `json:"partitioned_avf"`
	Iterations     int      `json:"iterations"`
	Converged      bool     `json:"converged"`
	Trace          []string `json:"trace"`
}

// editPin records one incremental re-solve after a seeded edit.
type editPin struct {
	Name      string `json:"name"`
	AVF       string `json:"avf"`
	Converged bool   `json:"converged"`
}

type solverPins struct {
	Solves []solvePin `json:"solves"`
	Edits  []editPin  `json:"edits"`
}

func floatBits(xs []float64) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, "%016x", math.Float64bits(x))
	}
	return b.String()
}

// seededInputs fills every structure port of a with seeded pAVFs in
// sorted port order, so designs sharing a port set get identical tables.
func seededInputs(a *core.Analyzer, seed uint64) *core.Inputs {
	rng := stats.New(seed)
	in := core.NewInputs()
	fill := func(ports []core.StructPort, m map[core.StructPort]float64) {
		sort.Slice(ports, func(i, j int) bool { return ports[i].String() < ports[j].String() })
		for _, sp := range ports {
			m[sp] = rng.Float64()
		}
	}
	fill(a.ReadPortTerms(), in.ReadPorts)
	fill(a.WritePortTerms(), in.WritePorts)
	return in
}

func pinSolve(t *testing.T, name string, a *core.Analyzer, in *core.Inputs) solvePin {
	t.Helper()
	mono, err := a.Solve(in)
	if err != nil {
		t.Fatalf("%s: Solve: %v", name, err)
	}
	part, err := a.SolvePartitioned(in)
	if err != nil {
		t.Fatalf("%s: SolvePartitioned: %v", name, err)
	}
	p := solvePin{
		Name:           name,
		SolveAVF:       floatBits(mono.AVF),
		PartitionedAVF: floatBits(part.AVF),
		Iterations:     part.Iterations,
		Converged:      part.Converged,
	}
	for _, row := range part.Trace {
		p.Trace = append(p.Trace, floatBits(row))
	}
	return p
}

func pinFubs(cfg graphtest.Config) graphtest.Config {
	cfg.Fubs = 16
	return cfg
}

// TestSolverPin pins the solvers' outputs across refactors of the
// relaxation: Solve and SolvePartitioned on seeded 16-FUB generated
// designs and on tinycore, and ResolveIncremental after one seeded edit
// of each structural kind. Regenerate with -update only when a numerical
// change is intended.
func TestSolverPin(t *testing.T) {
	var got solverPins
	for _, seed := range []uint64{1, 2, 3} {
		d, err := graphtest.Generate(pinFubs(graphtest.Small(seed)))
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewAnalyzer(d.Graph, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got.Solves = append(got.Solves, pinSolve(t, fmt.Sprintf("graphtest-seed%d", seed), a, seededInputs(a, seed)))
	}

	p := workload.MD5Like(60)
	fd, err := tinycore.FlatDesign(len(p.Code))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(fd)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(g, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	perf, err := uarch.Run(p, uarch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in, err := tinycore.BindInputs(perf.Report)
	if err != nil {
		t.Fatal(err)
	}
	got.Solves = append(got.Solves, pinSolve(t, "tinycore-md5", a, in))

	for _, kind := range []graphtest.EditKind{
		graphtest.EditAddFlop, graphtest.EditRemoveFlop,
		graphtest.EditRetimeCell, graphtest.EditRewireFubio,
	} {
		for _, seed := range []uint64{41, 43} {
			base, err := graphtest.Generate(pinFubs(graphtest.Small(seed)))
			if err != nil {
				t.Fatal(err)
			}
			aBase, err := core.NewAnalyzer(base.Graph, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			res, err := aBase.SolvePartitioned(seededInputs(aBase, seed))
			if err != nil {
				t.Fatal(err)
			}
			prior, err := res.PriorState()
			if err != nil {
				t.Fatal(err)
			}
			_, g2, _, err := base.ApplyEdit(kind, seed)
			if err != nil {
				t.Fatalf("%v seed %d: %v", kind, seed, err)
			}
			aNew, err := core.NewAnalyzer(g2, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			incr, _, err := aNew.ResolveIncremental(seededInputs(aNew, seed), prior)
			if err != nil {
				t.Fatalf("%v seed %d: ResolveIncremental: %v", kind, seed, err)
			}
			got.Edits = append(got.Edits, editPin{
				Name:      fmt.Sprintf("%v-seed%d", kind, seed),
				AVF:       floatBits(incr.AVF),
				Converged: incr.Converged,
			})
		}
	}

	data, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "solver_pin.json")
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("pin fixture unreadable (regenerate: go test ./internal/core/ -run TestSolverPin -update): %v", err)
	}
	if bytes.Equal(data, want) {
		return
	}
	var exp solverPins
	if err := json.Unmarshal(want, &exp); err != nil {
		t.Fatalf("pin fixture corrupt: %v", err)
	}
	if len(exp.Solves) != len(got.Solves) || len(exp.Edits) != len(got.Edits) {
		t.Fatalf("pin has %d solves and %d edits, fixture %d and %d",
			len(got.Solves), len(got.Edits), len(exp.Solves), len(exp.Edits))
	}
	for i, g := range got.Solves {
		w := exp.Solves[i]
		if g.Iterations != w.Iterations || g.Converged != w.Converged {
			t.Errorf("%s: iterations %d converged %v, pinned %d %v", g.Name, g.Iterations, g.Converged, w.Iterations, w.Converged)
		}
		firstDiff(t, g.Name+" Solve AVF", g.SolveAVF, w.SolveAVF)
		firstDiff(t, g.Name+" SolvePartitioned AVF", g.PartitionedAVF, w.PartitionedAVF)
		if len(g.Trace) != len(w.Trace) {
			t.Errorf("%s: %d trace rows, pinned %d", g.Name, len(g.Trace), len(w.Trace))
			continue
		}
		for r := range g.Trace {
			firstDiff(t, fmt.Sprintf("%s trace row %d", g.Name, r), g.Trace[r], w.Trace[r])
		}
	}
	for i, g := range got.Edits {
		w := exp.Edits[i]
		if g.Converged != w.Converged {
			t.Errorf("%s: converged %v, pinned %v", g.Name, g.Converged, w.Converged)
		}
		firstDiff(t, g.Name+" ResolveIncremental AVF", g.AVF, w.AVF)
	}
	if !t.Failed() {
		t.Fatal("pin output differs from the fixture in layout only")
	}
}

// firstDiff reports the first differing entry of two encoded vectors.
func firstDiff(t *testing.T, what string, got, want string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d entries, pinned %d", what, len(got)/16, len(want)/16)
		return
	}
	for i := 0; i < len(got); i += 16 {
		if got[i:i+16] != want[i:i+16] {
			t.Errorf("%s: entry %d is %s, pinned %s", what, i/16, got[i:i+16], want[i:i+16])
			return
		}
	}
}
