package artifact

import (
	"fmt"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph/graphtest"
)

// checkSetTable fails unless r's set table is well formed: every slot
// is -1 or inside the table, the table lists each set once, and slots
// appear in first-sighting order (vertex order, forward side first), the
// order Compile and PriorState rely on.
func checkSetTable(t *testing.T, what string, r *core.Result) {
	t.Helper()
	n := r.Analyzer.G.NumVerts()
	if len(r.Fwd) != n || len(r.Bwd) != n {
		t.Fatalf("%s: %d/%d slots for %d vertices", what, len(r.Fwd), len(r.Bwd), n)
	}
	listed := make(map[string]int32, r.Sets.Len())
	for s := int32(0); int(s) < r.Sets.Len(); s++ {
		key := fmt.Sprint(r.Sets.SetIDs(s))
		if first, dup := listed[key]; dup {
			t.Fatalf("%s: the table lists %s at slots %d and %d", what, key, first, s)
		}
		listed[key] = s
	}
	next := int32(0)
	for v := range r.Fwd {
		for side, slot := range [2]int32{r.Fwd[v], r.Bwd[v]} {
			if slot < -1 || int(slot) >= r.Sets.Len() {
				t.Fatalf("%s: vertex %d side %d: slot %d outside a table of %d", what, v, side, slot, r.Sets.Len())
			}
			if slot > next {
				t.Fatalf("%s: vertex %d side %d: slot %d before slot %d was sighted", what, v, side, slot, next)
			}
			if slot == next {
				next++
			}
		}
	}
	if int(next) != r.Sets.Len() {
		t.Fatalf("%s: %d of the table's %d sets are used", what, next, r.Sets.Len())
	}
}

// TestExprsMatchSetTable: on 200 seeded designs, the set table and
// slots that hold the closed forms are well formed (checkSetTable) after
// a monolithic solve, a partitioned solve, an incremental re-solve of a
// seeded edit (the four structural kinds in turn), and an artifact
// decode against a fresh analyzer.
func TestExprsMatchSetTable(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		d, err := graphtest.Generate(graphtest.Small(seed))
		if err != nil {
			t.Fatalf("seed %d: Generate: %v", seed, err)
		}
		a, err := core.NewAnalyzer(d.Graph, core.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: NewAnalyzer: %v", seed, err)
		}
		in := seededInputs(a, seed)
		mono, err := a.Solve(in)
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		checkSetTable(t, fmt.Sprintf("seed %d Solve", seed), mono)
		part, err := a.SolvePartitioned(in)
		if err != nil {
			t.Fatalf("seed %d: SolvePartitioned: %v", seed, err)
		}
		checkSetTable(t, fmt.Sprintf("seed %d SolvePartitioned", seed), part)

		kind := graphtest.EditKind(seed % 4)
		_, g2, _, err := d.ApplyEdit(kind, seed)
		if err != nil {
			t.Fatalf("seed %d: ApplyEdit(%v): %v", seed, kind, err)
		}
		a2, err := core.NewAnalyzer(g2, core.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: NewAnalyzer(edited): %v", seed, err)
		}
		prior, err := mono.PriorState()
		if err != nil {
			t.Fatalf("seed %d: PriorState: %v", seed, err)
		}
		incr, _, err := a2.ResolveIncremental(seededInputs(a2, seed), prior)
		if err != nil {
			t.Fatalf("seed %d: ResolveIncremental(%v): %v", seed, kind, err)
		}
		checkSetTable(t, fmt.Sprintf("seed %d ResolveIncremental(%v)", seed, kind), incr)

		data, err := Encode(mono)
		if err != nil {
			t.Fatalf("seed %d: Encode: %v", seed, err)
		}
		dec, _, err := Decode(data, freshAnalyzer(t, seed))
		if err != nil {
			t.Fatalf("seed %d: Decode: %v", seed, err)
		}
		checkSetTable(t, fmt.Sprintf("seed %d Decode", seed), dec)
	}
}
