package core

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/netlist"
	"seqavf/internal/pavf"
)

// ingested is one netlist text taken through the server's ingest: parse,
// validate, flatten, bit graph, analyzer.
type ingested struct {
	src *netlist.Source
	g   *graph.Graph
	a   *Analyzer
}

// ingest runs the ingest on text, reusing prior's stages when prior is
// non-nil, exactly as the server's edit path does.
func ingest(t *testing.T, text []byte, prior *ingested) *ingested {
	t.Helper()
	var (
		psrc *netlist.Source
		pd   *netlist.Design
		pf   *netlist.FlatDesign
		pg   *graph.Graph
		pa   *Analyzer
	)
	if prior != nil {
		psrc, pd, pf, pg, pa = prior.src, prior.src.Design, prior.g.Design, prior.g, prior.a
	}
	src, err := netlist.ParseFrom(text, psrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := src.Design.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	fd, err := netlist.FlattenFrom(src.Design, pd, pf)
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	g, err := graph.BuildFrom(fd, pg)
	if err != nil {
		t.Fatalf("graph: %v", err)
	}
	a, err := NewAnalyzerFrom(g, DefaultOptions(), pa)
	if err != nil {
		t.Fatalf("analyzer: %v", err)
	}
	return &ingested{src: src, g: g, a: a}
}

// renderFlat writes a hierarchy-free flat design as netlist text: one
// module per FUB holding its flat nodes.
func renderFlat(t *testing.T, fd *netlist.FlatDesign) []byte {
	t.Helper()
	d := netlist.NewDesign(fd.Name)
	d.Structures = fd.Structures
	for _, f := range fd.Fubs {
		m := d.AddModule(f.Module)
		for _, n := range f.Nodes {
			m.Add(n)
		}
		d.AddFub(f.Name, f.Module)
	}
	d.Connects = fd.Connects
	var out bytes.Buffer
	if err := netlist.Write(&out, d); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// sameIngest fails unless warm, ingested with a prior, equals cold,
// ingested from scratch, in everything downstream stages read: the
// graph arrays, roles, walk sources, the term universe in order, and
// the fingerprints.
func sameIngest(t *testing.T, what string, warm, cold *ingested) {
	t.Helper()
	gw, gc := warm.g, cold.g
	if !slices.Equal(gw.FubNames, gc.FubNames) || gw.NumVerts() != gc.NumVerts() {
		t.Fatalf("%s: FUBs %v / %d vertices, cold %v / %d", what, gw.FubNames, gw.NumVerts(), gc.FubNames, gc.NumVerts())
	}
	for v := range gc.Verts {
		x, y := &gw.Verts[v], &gc.Verts[v]
		if x.Fub != y.Fub || x.Bit != y.Bit || x.InLoop != y.InLoop || !reflect.DeepEqual(*x.Node, *y.Node) {
			t.Fatalf("%s: vertex %d = %s %+v, cold %s %+v", what, v, gw.Name(graph.VertexID(v)), *x, gc.Name(graph.VertexID(v)), *y)
		}
		id := graph.VertexID(v)
		if !slices.Equal(gw.Succs(id), gc.Succs(id)) || !slices.Equal(gw.Preds(id), gc.Preds(id)) {
			t.Fatalf("%s: vertex %s rows succ %v pred %v, cold succ %v pred %v",
				what, gc.Name(id), gw.Succs(id), gw.Preds(id), gc.Succs(id), gc.Preds(id))
		}
	}
	if !slices.Equal(gw.CrossEdges, gc.CrossEdges) || !maps.Equal(gw.DrivenInputs, gc.DrivenInputs) ||
		!maps.Equal(gw.ConsumedOutputs, gc.ConsumedOutputs) {
		t.Fatalf("%s: cross edges or boundary port sets differ from cold", what)
	}
	aw, ac := warm.a, cold.a
	if !slices.Equal(aw.roles, ac.roles) {
		t.Fatalf("%s: roles differ from cold", what)
	}
	if !slices.Equal(aw.fwdFixed, ac.fwdFixed) || !slices.Equal(aw.bwdFixed, ac.bwdFixed) ||
		!slices.Equal(aw.fwdSrc, ac.fwdSrc) || !slices.Equal(aw.bwdSrc, ac.bwdSrc) ||
		!slices.Equal(aw.srcs.Off, ac.srcs.Off) || !slices.Equal(aw.srcs.IDs, ac.srcs.IDs) {
		t.Fatalf("%s: walk sources differ from cold", what)
	}
	if aw.universe.Len() != ac.universe.Len() {
		t.Fatalf("%s: %d terms, cold %d", what, aw.universe.Len(), ac.universe.Len())
	}
	for i := 0; i < ac.universe.Len(); i++ {
		if x, y := aw.universe.Term(pavf.TermID(i)), ac.universe.Term(pavf.TermID(i)); x != y {
			t.Fatalf("%s: term %d = %+v, cold %+v", what, i, x, y)
		}
	}
	if !slices.Equal(aw.topo, ac.topo) || !slices.Equal(aw.loopTerms, ac.loopTerms) ||
		!maps.Equal(aw.pseudoIn, ac.pseudoIn) || !maps.Equal(aw.pseudoOut, ac.pseudoOut) ||
		!maps.Equal(aw.readTerm, ac.readTerm) || !maps.Equal(aw.writeTerm, ac.writeTerm) {
		t.Fatalf("%s: schedule or term bindings differ from cold", what)
	}
	if !slices.Equal(aw.FubFingerprints(), ac.FubFingerprints()) || aw.Fingerprint() != ac.Fingerprint() {
		t.Fatalf("%s: fingerprints %x / %x, cold %x / %x", what,
			aw.FubFingerprints(), aw.Fingerprint(), ac.FubFingerprints(), ac.Fingerprint())
	}
}

// TestIngestReuseMatchesCold is the differential harness for ingest
// reuse: across 200 seeds spread over the four structural edit kinds,
// the edited design's text ingested with the pre-edit ingest as prior
// must equal its cold ingest (sameIngest), while every FUB the edit did
// not touch reuses its parsed module, its flat FUB, its graph rows and
// its fingerprint. A rewire-fubio edit changes no module text: it reuses
// every FUB's rows and rehashes exactly the FUBs at the ends of the
// rewired connect.
func TestIngestReuseMatchesCold(t *testing.T) {
	kinds := []graphtest.EditKind{
		graphtest.EditAddFlop, graphtest.EditRemoveFlop,
		graphtest.EditRetimeCell, graphtest.EditRewireFubio,
	}
	const seeds = 50 // × 4 kinds = 200 differential cases
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= seeds; seed++ {
				cfg := graphtest.Small(seed)
				cfg.Fubs = 4
				base, err := graphtest.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				prior := ingest(t, renderFlat(t, base.Flat), nil)
				fd, _, edit, err := graphtest.ApplyEditFlat(prior.g.Design, prior.g, kind, seed^0x9E3779B97F4A7C15)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				text := renderFlat(t, fd)
				what := fmt.Sprintf("seed %d (%s)", seed, edit.Desc)
				warm := ingest(t, text, prior)
				sameIngest(t, what, warm, ingest(t, text, nil))

				kept := warm.a.keptFingerprints(prior.a)
				rewire := edit.Kind == graphtest.EditRewireFubio
				for f, name := range warm.g.FubNames {
					touched := slices.Contains(edit.TouchedFubs, name)
					mod := warm.g.Design.Fubs[f].Module
					pf, ok := prior.g.FubIndex(name)
					reused := ok && warm.src.Design.Modules[mod] == prior.src.Design.Modules[mod] &&
						warm.g.Design.Fubs[f] == prior.g.Design.Fubs[pf] && warm.g.RowsReused(f)
					if reused != (rewire || !touched) {
						t.Fatalf("%s: FUB %s (touched %v) reused module, flat FUB and rows: %v", what, name, touched, reused)
					}
					if (kept[f] >= 0) != !touched {
						t.Fatalf("%s: FUB %s (touched %v) kept its fingerprint: %v", what, name, touched, kept[f] >= 0)
					}
				}
			}
		})
	}
}

// loopPair is two FUBs closing a FUBIO loop through A's register q.
// Module mb carries the loop through B (a pass) or, with the edit,
// breaks it (B's output is a constant).
const loopPair = `design looppair
module ma
  input i 1
  seq q 1 = i
  output o 1 = q
endmodule
module mb
  input i 1
  comb p 1 pass i
  output o 1 = p
endmodule
top A ma
top B mb
connect A.o -> B.i
connect B.o -> A.i
`

// TestIngestReuseRechecksRoles: an edit inside one FUB can change
// another FUB's roles without touching its text, rows or boundary —
// here breaking a FUBIO loop demotes A's register from a loop boundary
// to a normal sequential. A keeps its module, flat FUB and rows but
// must be rehashed.
func TestIngestReuseRechecksRoles(t *testing.T) {
	prior := ingest(t, []byte(loopPair), nil)
	edited := bytes.Replace([]byte(loopPair), []byte("  comb p 1 pass i\n  output o 1 = p\n"),
		[]byte("  const k 1 0\n  output o 1 = k\n"), 1)
	warm := ingest(t, edited, prior)
	sameIngest(t, "broken loop", warm, ingest(t, edited, nil))
	a, _ := warm.g.FubIndex("A")
	if !warm.g.RowsReused(a) {
		t.Fatal("FUB A did not reuse its rows")
	}
	if kept := warm.a.keptFingerprints(prior.a); kept[a] >= 0 {
		t.Fatal("FUB A kept its fingerprint although its register's role changed")
	}
	if warm.a.FubFingerprints()[a] == prior.a.FubFingerprints()[a] {
		t.Fatal("FUB A's fingerprint did not move with its roles")
	}
}

// TestIngestReuseSelfConnect: a FUB wired to itself hashes that edge as
// an intra-FUB successor in connect order, so it is always rehashed,
// and reordering its connects must still match a cold ingest.
func TestIngestReuseSelfConnect(t *testing.T) {
	const text = `design selfloop
module m
  input i0 1
  input i1 1
  seq q 1 = i1
  comb x 1 xor q i0
  output o 1 = x
endmodule
module n
  input i 1
  seq r 1 = i
  output o 1 = r
endmodule
top A m
top B n
connect A.o -> A.i1
connect B.o -> A.i0
connect A.o -> B.i
`
	prior := ingest(t, []byte(text), nil)
	edited := []byte(text[:len(text)-len("connect A.o -> A.i1\nconnect B.o -> A.i0\nconnect A.o -> B.i\n")] +
		"connect A.o -> B.i\nconnect B.o -> A.i0\nconnect A.o -> A.i1\n")
	warm := ingest(t, edited, prior)
	sameIngest(t, "reordered self-connect", warm, ingest(t, edited, nil))
	a, _ := warm.g.FubIndex("A")
	if kept := warm.a.keptFingerprints(prior.a); kept[a] >= 0 {
		t.Fatal("a self-connected FUB kept its fingerprint")
	}
}
