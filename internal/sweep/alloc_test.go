package sweep

import (
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/graph"
	"seqavf/internal/netlist"
)

// TestEditPathAllocationPins pins what an ECO edit pays on XeonLike
// (seed 2027) between two solves: Result.PriorState only slices the
// result's set table, so it allocates a fixed handful of objects (the
// prior, its FUB table, its set headers and its AVF copy) and no map or
// per-set key; Compile adopts the result's table and slots, so it
// allocates far fewer objects than the plan has sets.
func TestEditPathAllocationPins(t *testing.T) {
	gen, err := design.Generate(design.DefaultConfig(2027))
	if err != nil {
		t.Fatal(err)
	}
	fd, err := netlist.Flatten(gen.Design)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(fd)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.DefaultPortPAVF = 0.25
	a, err := core.NewAnalyzer(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Solve(core.NewInputs())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sets.Len() < 100 {
		t.Fatalf("XeonLike solved to %d distinct sets; the pins below assume hundreds", res.Sets.Len())
	}

	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := res.PriorState(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Errorf("PriorState allocates %v objects for %d FUBs and %d sets, want at most 4",
			allocs, len(g.FubNames), res.Sets.Len())
	}

	var p *Plan
	allocs := testing.AllocsPerRun(20, func() {
		if p, err = Compile(res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= float64(p.NumSets())/2 {
		t.Errorf("Compile allocates %v objects for %d sets, want fewer than half as many", allocs, p.NumSets())
	}
	t.Logf("PriorState and Compile over %d sets, %d FUBs: Compile %v allocs", res.Sets.Len(), len(g.FubNames), allocs)
}
