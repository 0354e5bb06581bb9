package graph_test

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/netlist"
)

// TestBuildFromMatchesBuild: a graph built from a prior version, with
// the FUBs an edit left alone sharing the prior's flat FUBs, equals the
// cold build of the same flat design in every array, and copies
// exactly the shared FUBs' rows.
func TestBuildFromMatchesBuild(t *testing.T) {
	kinds := []graphtest.EditKind{
		graphtest.EditAddFlop, graphtest.EditRemoveFlop,
		graphtest.EditRetimeCell, graphtest.EditRewireFubio,
	}
	for _, kind := range kinds {
		for seed := uint64(1); seed <= 20; seed++ {
			base, err := graphtest.Generate(graphtest.Default(seed))
			if err != nil {
				t.Fatal(err)
			}
			edited, _, edit, err := base.ApplyEdit(kind, seed*7919)
			if err != nil {
				t.Fatal(err)
			}
			// The edited version shares every FUB whose nodes the edit did
			// not change: a rewire changes connects only.
			fd := *edited
			fd.Fubs = slices.Clone(edited.Fubs)
			for i, f := range fd.Fubs {
				if edit.Kind == graphtest.EditRewireFubio || !slices.Contains(edit.TouchedFubs, f.Name) {
					fd.Fubs[i] = base.Flat.Fubs[i]
				}
			}
			warm, err := graph.BuildFrom(&fd, base.Graph)
			if err != nil {
				t.Fatalf("%s: BuildFrom: %v", edit.Desc, err)
			}
			cold, err := graph.Build(&fd)
			if err != nil {
				t.Fatalf("%s: Build: %v", edit.Desc, err)
			}
			if !slices.Equal(warm.Verts, cold.Verts) || !slices.Equal(warm.CrossEdges, cold.CrossEdges) ||
				!maps.Equal(warm.DrivenInputs, cold.DrivenInputs) || !maps.Equal(warm.ConsumedOutputs, cold.ConsumedOutputs) {
				t.Fatalf("%s: vertices, cross edges or boundary ports differ from the cold build", edit.Desc)
			}
			for v := range cold.Verts {
				id := graph.VertexID(v)
				if !slices.Equal(warm.Succs(id), cold.Succs(id)) || !slices.Equal(warm.Preds(id), cold.Preds(id)) {
					t.Fatalf("%s: rows of %s differ from the cold build", edit.Desc, cold.Name(id))
				}
			}
			for i, f := range fd.Fubs {
				if got, want := warm.RowsReused(i), f == base.Flat.Fubs[i]; got != want || cold.RowsReused(i) {
					t.Fatalf("%s: FUB %s rows reused %v, want %v (cold %v)", edit.Desc, f.Name, got, want, cold.RowsReused(i))
				}
				if j, ok := warm.FubIndex(f.Name); !ok || j != i {
					t.Fatalf("FubIndex(%s) = %d, %v", f.Name, j, ok)
				}
				n := f.Nodes[len(f.Nodes)-1]
				wb, ww, wok := warm.VertexBase(f.Name, n.Name)
				cb, cw, cok := cold.VertexBase(f.Name, n.Name)
				if wb != cb || ww != cw || !wok || !cok || warm.Verts[wb].Node != n {
					t.Fatalf("VertexBase(%s, %s) = %d/%d, cold %d/%d", f.Name, n.Name, wb, ww, cb, cw)
				}
			}
		}
	}
}

// TestBuildRejectsBadFlatDesigns: references Flatten would have caught
// and connects naming no FUB or port fail with an error, not a panic.
func TestBuildRejectsBadFlatDesigns(t *testing.T) {
	base, err := graphtest.Generate(graphtest.Small(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		edit       func(fd *netlist.FlatDesign)
	}{
		{"unresolved input", `unresolved input "nonesuch"`, func(fd *netlist.FlatDesign) {
			for _, n := range fd.Fubs[0].Nodes {
				if len(n.Inputs) > 0 {
					n.Inputs[0] = "nonesuch"
					return
				}
			}
		}},
		{"unknown FUB", "connect references unknown FUB", func(fd *netlist.FlatDesign) {
			fd.Connects[0].To.Fub = "nope"
		}},
		{"unknown port", "bad connect", func(fd *netlist.FlatDesign) {
			fd.Connects[0].From.Port = "nope"
		}},
		{"unsupported op", "unsupported op", func(fd *netlist.FlatDesign) {
			for _, n := range fd.Fubs[0].Nodes {
				if n.Kind == netlist.KindComb {
					n.Op = netlist.OpInvalid
					return
				}
			}
		}},
		{"unsupported kind", "unsupported kind", func(fd *netlist.FlatDesign) {
			fd.Fubs[0].Nodes[0].Kind = netlist.KindInvalid
		}},
	} {
		fd := base.Flat.Clone()
		tc.edit(fd)
		if _, err := graph.BuildFrom(fd, base.Graph); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}
