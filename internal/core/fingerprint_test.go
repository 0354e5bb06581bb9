package core

import (
	"slices"
	"strings"
	"testing"

	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/netlist"
)

// TestFingerprintSensitivity changes one hashed attribute at a time on a
// small generated design and checks what each fingerprint sees: the
// design fingerprint always moves, and the per-FUB fingerprints move for
// exactly the FUBs the attribute belongs to — the owning FUB, both end
// FUBs of a cross edge, a renamed FUB and its FUBIO neighbours, or every
// FUB for an option.
func TestFingerprintSensitivity(t *testing.T) {
	cfg := graphtest.Small(3)
	cfg.Fubs = 4
	generate := func() *graphtest.Design {
		d, err := graphtest.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	base := generate()
	ref := mustAnalyzer(t, base.Graph, DefaultOptions())
	all := append([]string(nil), base.Graph.FubNames...)

	// A vertex-level mutation edits the built graph in place, so the
	// edge structure is untouched; a netlist-level one edits the flat
	// design and rebuilds the graph.
	type mutation func(t *testing.T, d *graphtest.Design, opts *Options) (g *graph.Graph, changed []string)
	vertex := func(pick func(a *Analyzer, v graph.VertexID) bool, edit func(vx *graph.Vertex)) mutation {
		return func(t *testing.T, d *graphtest.Design, _ *Options) (*graph.Graph, []string) {
			v, ok := findVertex(ref, pick)
			if !ok {
				t.Fatal("no vertex to mutate")
			}
			edit(&d.Graph.Verts[v])
			return d.Graph, []string{d.Graph.FubNames[d.Graph.Verts[v].Fub]}
		}
	}
	normal := func(kind netlist.Kind) func(a *Analyzer, v graph.VertexID) bool {
		return func(a *Analyzer, v graph.VertexID) bool {
			return a.G.Verts[v].Node.Kind == kind && a.Role(v) == RoleNormal && a.G.Verts[v].Node.Class == netlist.ClassNone
		}
	}
	rebuild := func(t *testing.T, d *graphtest.Design) *graph.Graph {
		g, err := graph.Build(d.Flat)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	cases := []struct {
		name   string
		mutate mutation
	}{
		{"vertex name", vertex(func(a *Analyzer, v graph.VertexID) bool {
			return normal(netlist.KindComb)(a, v) && !hasCrossPeer(a.G, v)
		}, func(vx *graph.Vertex) { vx.Node.Name += "_renamed" })},
		{"bit", vertex(func(a *Analyzer, v graph.VertexID) bool {
			return a.G.Verts[v].Bit == 1
		}, func(vx *graph.Vertex) { vx.Bit = 7 })},
		{"kind", vertex(normal(netlist.KindComb), func(vx *graph.Vertex) { vx.Node.Kind = netlist.KindSeq })},
		{"class", vertex(normal(netlist.KindComb), func(vx *graph.Vertex) { vx.Node.Class = netlist.ClassDebugLive })},
		{"structure", vertex(func(a *Analyzer, v graph.VertexID) bool {
			return a.G.Verts[v].Node.Kind == netlist.KindStructRead
		}, func(vx *graph.Vertex) { vx.Node.Struct += "x" })},
		{"port", vertex(func(a *Analyzer, v graph.VertexID) bool {
			return a.G.Verts[v].Node.Kind == netlist.KindStructRead
		}, func(vx *graph.Vertex) { vx.Node.Port += "x" })},
		{"clock", vertex(normal(netlist.KindSeq), func(vx *graph.Vertex) { vx.Node.Clock = "clk_b" })},
		{"intra-FUB edge", func(t *testing.T, d *graphtest.Design, _ *Options) (*graph.Graph, []string) {
			// Rewire a layer node's first input to a structure read port,
			// which has no predecessors and so cannot close a cycle.
			for _, fub := range d.Flat.Fubs {
				var src string
				for _, n := range fub.Nodes {
					if n.Kind == netlist.KindStructRead && len(n.Inputs) == 0 {
						src = n.Name
					}
				}
				for _, n := range fub.Nodes {
					if src == "" || n.Kind != netlist.KindComb || !strings.HasPrefix(n.Name, "l") || slices.Contains(n.Inputs, src) {
						continue
					}
					n.Inputs[0] = src
					return rebuild(t, d), []string{fub.Name}
				}
			}
			t.Fatal("no layer node to rewire")
			return nil, nil
		}},
		{"cross-edge peer", func(t *testing.T, d *graphtest.Design, _ *Options) (*graph.Graph, []string) {
			// Move a connect to the source FUB's other output port.
			for i, c := range d.Flat.Connects {
				for _, n := range d.Flat.Fub(c.From.Fub).Nodes {
					if n.Kind == netlist.KindOutput && n.Name != c.From.Port {
						d.Flat.Connects[i].From.Port = n.Name
						return rebuild(t, d), []string{c.From.Fub, c.To.Fub}
					}
				}
			}
			t.Fatal("no connect with an alternative source port")
			return nil, nil
		}},
		{"control-register prefix", func(t *testing.T, d *graphtest.Design, opts *Options) (*graph.Graph, []string) {
			opts.ControlRegPrefixes = append(opts.ControlRegPrefixes, "zz_")
			return d.Graph, all
		}},
		{"FUB name", func(t *testing.T, d *graphtest.Design, _ *Options) (*graph.Graph, []string) {
			// Rename a FUB with FUBIO neighbours: their cross-edge peers
			// name it, so they move with it.
			for _, c := range d.Flat.Connects {
				old, nb := c.To.Fub, c.From.Fub
				changed := map[string]bool{old: true, nb: true}
				d.Flat.Fub(old).Name = old + "_renamed"
				for j := range d.Flat.Connects {
					cj := &d.Flat.Connects[j]
					if cj.From.Fub == old {
						cj.From.Fub = old + "_renamed"
						changed[cj.To.Fub] = true
					}
					if cj.To.Fub == old {
						cj.To.Fub = old + "_renamed"
						changed[cj.From.Fub] = true
					}
				}
				var names []string
				for f := range changed {
					names = append(names, f)
				}
				return rebuild(t, d), names
			}
			t.Fatal("no connect")
			return nil, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := generate()
			opts := DefaultOptions()
			g, changed := tc.mutate(t, d, &opts)
			a := mustAnalyzer(t, g, opts)
			if a.Fingerprint() == ref.Fingerprint() {
				t.Errorf("design fingerprint did not change")
			}
			want := make(map[int]bool)
			for _, name := range changed {
				want[fubIndex(t, base.Graph, name)] = true
			}
			checkFubChanges(t, ref, a, want)
		})
	}

	// The length prefixes keep string lists apart that concatenate
	// alike: ("xy","z") against ("x","yz"), and a pair built so that,
	// without its length words, each list would absorb the same word
	// stream (the zero padding of "yy" spelled out in the second list).
	// No node name starts with x, so the roles are the same under every
	// list.
	for _, pair := range [][2][]string{
		{{"xy", "z"}, {"x", "yz"}},
		{{"xxxxxxxxyy", "zz"}, {"xxxxxxxx", "yy\x00\x00\x00\x00\x00\x00zz"}},
	} {
		t.Run("length prefix "+strings.Join(pair[0], ","), func(t *testing.T) {
			o1, o2 := DefaultOptions(), DefaultOptions()
			o1.ControlRegPrefixes, o2.ControlRegPrefixes = pair[0], pair[1]
			a1 := mustAnalyzer(t, generate().Graph, o1)
			a2 := mustAnalyzer(t, generate().Graph, o2)
			if a1.Fingerprint() == a2.Fingerprint() {
				t.Errorf("design fingerprint does not separate %q from %q", pair[0], pair[1])
			}
			want := make(map[int]bool)
			for f := range all {
				want[f] = true
			}
			checkFubChanges(t, a1, a2, want)
		})
	}
}

// checkFubChanges asserts that b's per-FUB fingerprints differ from a's
// at exactly the FUB indices in want.
func checkFubChanges(t *testing.T, a, b *Analyzer, want map[int]bool) {
	t.Helper()
	fa, fb := a.FubFingerprints(), b.FubFingerprints()
	if len(fa) != len(fb) {
		t.Fatalf("%d FUB fingerprints, want %d", len(fb), len(fa))
	}
	for f := range fa {
		if moved := fa[f] != fb[f]; moved != want[f] {
			t.Errorf("FUB %d (%s): fingerprint changed=%v, want %v", f, a.G.FubNames[f], moved, want[f])
		}
	}
}

func mustAnalyzer(t *testing.T, g *graph.Graph, opts Options) *Analyzer {
	t.Helper()
	a, err := NewAnalyzer(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func findVertex(a *Analyzer, pick func(a *Analyzer, v graph.VertexID) bool) (graph.VertexID, bool) {
	for v := 0; v < a.G.NumVerts(); v++ {
		if pick(a, graph.VertexID(v)) {
			return graph.VertexID(v), true
		}
	}
	return 0, false
}

// hasCrossPeer reports whether any bit of v's node has a cross edge.
func hasCrossPeer(g *graph.Graph, v graph.VertexID) bool {
	for u := range g.Verts {
		if g.Verts[u].Node != g.Verts[v].Node {
			continue
		}
		for _, e := range g.CrossEdges {
			if e.From == graph.VertexID(u) || e.To == graph.VertexID(u) {
				return true
			}
		}
	}
	return false
}

func fubIndex(t *testing.T, g *graph.Graph, name string) int {
	t.Helper()
	for f, n := range g.FubNames {
		if n == name || n+"_renamed" == name {
			return f
		}
	}
	t.Fatalf("no FUB %q", name)
	return -1
}
