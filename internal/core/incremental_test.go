package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavf"
	"seqavf/internal/stats"
)

// randPortInputs fills every structure port of a with seeded pAVFs.
// Ports are filled in sorted order, so two designs exposing the same
// port set receive bit-identical tables from the same seed — which is
// what lets the harness hold the workload fixed across an edit.
func randPortInputs(a *Analyzer, seed uint64) *Inputs {
	rng := stats.New(seed)
	in := NewInputs()
	fill := func(ports []StructPort, m map[StructPort]float64) {
		sort.Slice(ports, func(i, j int) bool { return ports[i].String() < ports[j].String() })
		for _, sp := range ports {
			m[sp] = rng.Float64()
		}
	}
	fill(a.ReadPortTerms(), in.ReadPorts)
	fill(a.WritePortTerms(), in.WritePorts)
	return in
}

// neutralInputs assigns 0.5 to every structure port of a, as seqavfd
// does for its symbolic solves. Under it any set with two port terms
// evaluates to 1, the value of {⊤}, so values alone cannot tell such a
// set from ⊤.
func neutralInputs(a *Analyzer) *Inputs {
	in := NewInputs()
	for _, sp := range a.ReadPortTerms() {
		in.ReadPorts[sp] = 0.5
	}
	for _, sp := range a.WritePortTerms() {
		in.WritePorts[sp] = 0.5
	}
	return in
}

// harnessCfg selects one differential case's shape: the FUB count, the
// solver the prior comes from, and the pAVF tables both solves use.
type harnessCfg struct {
	fubs        int
	partitioned bool // prior from SolvePartitioned, else from Solve
	neutral     bool // neutralInputs, else randPortInputs
}

// editHarness solves a seeded base design, applies one seeded edit, and
// returns everything the differential assertions need.
type editHarness struct {
	base    *graphtest.Design
	baseRes *Result
	prior   *PriorState
	aNew    *Analyzer
	edit    *graphtest.Edit
	inSeed  uint64
	neutral bool
}

// inputs returns the harness's pAVF table for a: the same values on
// either side of the edit.
func (h *editHarness) inputs(a *Analyzer) *Inputs {
	if h.neutral {
		return neutralInputs(a)
	}
	return randPortInputs(a, h.inSeed)
}

// buildEditHarness is buildEditHarnessCfg at four FUBs with a
// SolvePartitioned prior under seeded tables.
func buildEditHarness(t *testing.T, seed uint64, kind graphtest.EditKind) *editHarness {
	t.Helper()
	// Four FUBs so even a three-FUB rewire leaves a clean one: the
	// locality assertion (dirty < total) must be satisfiable for every
	// edit kind.
	return buildEditHarnessCfg(t, seed, kind, harnessCfg{fubs: 4, partitioned: true})
}

func buildEditHarnessCfg(t *testing.T, seed uint64, kind graphtest.EditKind, hc harnessCfg) *editHarness {
	t.Helper()
	cfg := graphtest.Small(seed)
	cfg.Fubs = hc.fubs
	base, err := graphtest.Generate(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	aBase, err := NewAnalyzer(base.Graph, DefaultOptions())
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	h := &editHarness{base: base, inSeed: seed ^ 0xABCD1234, neutral: hc.neutral}
	solve := aBase.Solve
	if hc.partitioned {
		solve = aBase.SolvePartitioned
	}
	if h.baseRes, err = solve(h.inputs(aBase)); err != nil {
		t.Fatalf("seed %d: base solve: %v", seed, err)
	}
	if h.prior, err = h.baseRes.PriorState(); err != nil {
		t.Fatalf("seed %d: PriorState: %v", seed, err)
	}
	_, g2, edit, err := base.ApplyEdit(kind, seed^0x9E3779B97F4A7C15)
	if err != nil {
		t.Fatalf("seed %d kind %v: %v", seed, kind, err)
	}
	if h.aNew, err = NewAnalyzer(g2, DefaultOptions()); err != nil {
		t.Fatalf("seed %d kind %v: edited analyzer: %v", seed, kind, err)
	}
	h.edit = edit
	return h
}

// closedFormDiff compares two results over one analyzer closed form for
// closed form: per vertex side, then the set tables and slot arrays
// themselves. It returns "" when they are equal, else the number of
// differing vertex sides and the first one, rendered both ways.
func closedFormDiff(got, want *Result) string {
	u := want.Analyzer.Universe()
	side := func(s pavf.Set, known bool) string {
		if !known {
			return "unknown"
		}
		return s.Format(u)
	}
	n, first := 0, ""
	for v := range want.Fwd {
		g, w := got.Expr(graph.VertexID(v)), want.Expr(graph.VertexID(v))
		for _, d := range []struct {
			dir    string
			gs, ws pavf.Set
			gk, wk bool
		}{{"fwd", g.Fwd, w.Fwd, g.KnownFwd, w.KnownFwd}, {"bwd", g.Bwd, w.Bwd, g.KnownBwd, w.KnownBwd}} {
			if d.gk == d.wk && (!d.gk || d.gs.Equal(d.ws)) {
				continue
			}
			if n++; first == "" {
				first = fmt.Sprintf("%s %s: %s, want %s", want.Analyzer.G.Name(graph.VertexID(v)), d.dir, side(d.gs, d.gk), side(d.ws, d.wk))
			}
		}
	}
	if n > 0 {
		return fmt.Sprintf("%d vertex sides differ, first %s", n, first)
	}
	if !slices.Equal(got.Fwd, want.Fwd) || !slices.Equal(got.Bwd, want.Bwd) ||
		!slices.Equal(got.Sets.Off, want.Sets.Off) || !slices.Equal(got.Sets.IDs, want.Sets.IDs) {
		return "equal closed forms in differently ordered set tables"
	}
	return ""
}

// TestIncrementalMatchesFromScratch is the differential harness: across
// 50 seeds for each of the four structural edit kinds, at 4 and 8 FUBs,
// with the prior from Solve and from SolvePartitioned, under neutral
// and seeded pAVF tables, an incremental re-solve seeded from the
// pre-edit state must hold exactly a cold Solve's closed forms — every
// vertex side's set, the set table and the slots — and AVFs, while
// dirtying no more FUBs than the edit actually touched.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	kinds := []graphtest.EditKind{
		graphtest.EditAddFlop, graphtest.EditRemoveFlop,
		graphtest.EditRetimeCell, graphtest.EditRewireFubio,
	}
	const seeds = 50
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for _, fubs := range []int{4, 8} {
				for seed := uint64(1); seed <= seeds; seed++ {
					for _, hc := range []harnessCfg{
						{fubs: fubs, partitioned: false, neutral: true},
						{fubs: fubs, partitioned: true, neutral: true},
						{fubs: fubs, partitioned: false, neutral: false},
						{fubs: fubs, partitioned: true, neutral: false},
					} {
						checkIncremental(t, seed, kind, hc)
					}
				}
			}
		})
	}
}

// checkIncremental runs one differential case of the harness.
func checkIncremental(t *testing.T, seed uint64, kind graphtest.EditKind, hc harnessCfg) {
	t.Helper()
	h := buildEditHarnessCfg(t, seed, kind, hc)
	where := fmt.Sprintf("seed %d %+v (%s)", seed, hc, h.edit.Desc)
	incr, st, err := h.aNew.ResolveIncremental(h.inputs(h.aNew), h.prior)
	if err != nil {
		t.Fatalf("%s: ResolveIncremental: %v", where, err)
	}
	cold, err := h.aNew.Solve(h.inputs(h.aNew))
	if err != nil {
		t.Fatalf("%s: cold solve: %v", where, err)
	}
	if d := closedFormDiff(incr, cold); d != "" {
		t.Fatalf("%s: incremental closed forms differ from a cold Solve: %s (stats %+v)", where, d, st)
	}
	for v := range cold.AVF {
		if math.Float64bits(incr.AVF[v]) != math.Float64bits(cold.AVF[v]) {
			t.Fatalf("%s: vertex %d AVF %v, cold Solve %v", where, v, incr.AVF[v], cold.AVF[v])
		}
	}
	if !incr.Converged || !st.Converged || st.Iterations != 1 {
		t.Fatalf("%s: stats %+v, want one converged pass", where, st)
	}
	// Locality: the fingerprint diff may dirty only FUBs the edit
	// touched, and a local edit must leave reuse on the table.
	if st.FubsDirty > len(h.edit.TouchedFubs) {
		t.Fatalf("%s: %d FUBs dirty but the edit touched only %v", where, st.FubsDirty, h.edit.TouchedFubs)
	}
	if st.FubsDirty >= st.FubsTotal {
		t.Fatalf("%s: local edit dirtied all %d FUBs", where, st.FubsTotal)
	}
	if st.FubsDirty > st.FubsActive || st.FubsActive+st.FubsReused != st.FubsTotal {
		t.Fatalf("%s: inconsistent stats %+v", where, st)
	}
}

// TestPavfOnlyEditDirtiesNothing is the satellite regression: an edit
// that changes only measured pAVFs — no structure — must invalidate zero
// FUBs and skip the relaxation entirely. Under new inputs the result must
// match the §5.1 closed-form contract bit-for-bit (prior equations
// re-evaluated, i.e. Reevaluate on the prior result); under the original
// inputs the prior's evaluated AVFs must come back bit-identically.
func TestPavfOnlyEditDirtiesNothing(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		h := buildEditHarness(t, seed, graphtest.EditPavfOnly)
		if len(h.edit.TouchedFubs) != 0 {
			t.Fatalf("seed %d: pavf-only edit reports touched FUBs %v", seed, h.edit.TouchedFubs)
		}
		// Perturbed workload: new pAVF values, same structure.
		in := randPortInputs(h.aNew, h.inSeed+777)
		incr, st, err := h.aNew.ResolveIncremental(in, h.prior)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.FubsDirty != 0 || st.FubsReused != st.FubsTotal || st.Iterations != 0 {
			t.Fatalf("seed %d: pavf-only edit produced stats %+v, want zero dirty and zero iterations", seed, st)
		}
		// The differential baseline for unchanged structure + new inputs is
		// the repo's standing warm-start semantics: plug the new pAVFs into
		// the prior closed forms (Reevaluate), not a fresh walk.
		if err := h.baseRes.Reevaluate(randPortInputs(h.baseRes.Analyzer, h.inSeed+777)); err != nil {
			t.Fatalf("seed %d: Reevaluate: %v", seed, err)
		}
		for v := range h.baseRes.AVF {
			if incr.AVF[v] != h.baseRes.AVF[v] {
				t.Fatalf("seed %d: vertex %d AVF %v != reevaluated prior %v (must be bit-identical)",
					seed, v, incr.AVF[v], h.baseRes.AVF[v])
			}
		}
		// Identical workload: the prior's evaluated AVFs must be reused
		// bit-for-bit without touching the expressions at all.
		same, st2, err := h.aNew.ResolveIncremental(randPortInputs(h.aNew, h.inSeed), h.prior)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st2.FubsDirty != 0 {
			t.Fatalf("seed %d: equal-input re-solve dirtied %d FUBs", seed, st2.FubsDirty)
		}
		base := 0
		for _, fp := range h.prior.Fubs {
			for i, want := range fp.AVF {
				if got := same.AVF[base+i]; got != want {
					t.Fatalf("seed %d: FUB %s vertex %d: reused AVF %v != prior %v", seed, fp.Name, i, got, want)
				}
			}
			base += len(fp.AVF)
		}
	}
}

// TestFubFingerprintsStability pins the per-FUB fingerprint contract:
// deterministic across analyzer constructions, invariant under pAVF-only
// regeneration, and perturbed for exactly the touched FUBs by a
// structural edit.
func TestFubFingerprintsStability(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		cfg := graphtest.Small(seed)
		cfg.Fubs = 4
		d1, err := graphtest.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := graphtest.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a1, err := NewAnalyzer(d1.Graph, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		a2, err := NewAnalyzer(d2.Graph, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		f1, f2 := a1.FubFingerprints(), a2.FubFingerprints()
		if len(f1) != len(f2) {
			t.Fatalf("seed %d: fingerprint counts differ", seed)
		}
		for i := range f1 {
			if f1[i] != f2[i] {
				t.Fatalf("seed %d: FUB %s fingerprint not deterministic", seed, d1.Graph.FubNames[i])
			}
		}
		// A structural edit must change the touched FUBs' fingerprints
		// and no others.
		_, g2, edit, err := d1.ApplyEdit(graphtest.EditAddFlop, seed+99)
		if err != nil {
			t.Fatal(err)
		}
		aEd, err := NewAnalyzer(g2, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		fEd := aEd.FubFingerprints()
		touched := make(map[string]bool)
		for _, f := range edit.TouchedFubs {
			touched[f] = true
		}
		for i, name := range d1.Graph.FubNames {
			changed := f1[i] != fEd[i]
			if changed != touched[name] {
				t.Fatalf("seed %d: FUB %s fingerprint changed=%v but touched=%v (%s)",
					seed, name, changed, touched[name], edit.Desc)
			}
		}
	}
}

// chainDesign builds four FUBs wired A→B→C→D, one bit wide. A drives its
// output from the IA read port, or, when widened, from IA and IB joined,
// which dirties A and moves every forward set downstream of it. B
// forwards its input. C stores its input at the WC write port and, unless
// cForwards is set, drives D from its own IC read port, so C's boundary
// towards D does not depend on anything upstream.
func chainDesign(t *testing.T, widened, cForwards bool) (*Analyzer, *Inputs) {
	t.Helper()
	d := netlist.NewDesign("chain")
	for _, s := range []string{"IA", "IB", "IC", "WA", "WC", "WD"} {
		d.AddStructure(s, 4, 1)
	}
	ab := netlist.Build(d.AddModule("a"))
	ra := ab.SRead("ra", 1, "IA", "rd")
	rb := ab.SRead("rb", 1, "IB", "rd")
	ab.SWrite("wa", "WA", "wr", rb)
	src := ra
	if widened {
		src = ab.C("join", 1, netlist.OpOr, ra, rb)
	}
	ab.Out("o", 1, ab.Seq("ar", 1, src))

	bb := netlist.Build(d.AddModule("b"))
	bb.Out("o", 1, bb.Seq("br", 1, bb.In("i", 1)))

	cb := netlist.Build(d.AddModule("c"))
	ci := cb.Seq("cr", 1, cb.In("i", 1))
	cb.SWrite("wc", "WC", "wr", ci)
	cout := ci
	if !cForwards {
		cout = cb.SRead("rc", 1, "IC", "rd")
	}
	cb.Out("o", 1, cb.Seq("co", 1, cout))

	db := netlist.Build(d.AddModule("d"))
	db.SWrite("wd", "WD", "wr", db.Seq("dr", 1, db.In("i", 1)))

	d.AddFub("A", "a")
	d.AddFub("B", "b")
	d.AddFub("C", "c")
	d.AddFub("D", "d")
	d.ConnectPorts("A", "o", "B", "i")
	d.ConnectPorts("B", "o", "C", "i")
	d.ConnectPorts("C", "o", "D", "i")

	a := mustAnalyze(t, d, DefaultOptions())
	in := NewInputs()
	in.ReadPorts[StructPort{"IA", "rd"}] = 0.3
	in.ReadPorts[StructPort{"IB", "rd"}] = 0.2
	in.ReadPorts[StructPort{"IC", "rd"}] = 0.1
	in.WritePorts[StructPort{"WA", "wr"}] = 0.6
	in.WritePorts[StructPort{"WC", "wr"}] = 0.5
	in.WritePorts[StructPort{"WD", "wr"}] = 0.4
	return a, in
}

// TestPropagationStopsAtUnmovedSlots pins the propagation rule on a FUB
// chain A→B→C→D with A dirty: A is recomputed, its moved output moves
// B, and B's moves C. D moves only if C's output set moves, which it
// does only when C forwards its input; when C drives D from its own read
// port the walk stops inside C and D keeps its prior state. Either way
// the result is a cold Solve's, set for set, and the walk recomputes
// fewer vertex sides than the cold Solve does.
func TestPropagationStopsAtUnmovedSlots(t *testing.T) {
	walked := make(map[bool]int64)
	for _, tc := range []struct {
		cForwards  bool
		wantActive int
	}{
		{cForwards: false, wantActive: 3},
		{cForwards: true, wantActive: 4},
	} {
		base, in := chainDesign(t, false, tc.cForwards)
		res, err := base.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		prior, err := res.PriorState()
		if err != nil {
			t.Fatal(err)
		}
		edited, in := chainDesign(t, true, tc.cForwards)
		reg := obs.New()
		edited.Opts.Obs = reg
		incr, st, err := edited.ResolveIncremental(in, prior)
		if err != nil {
			t.Fatal(err)
		}
		if st.FubsDirty != 1 || st.FubsActive != tc.wantActive || st.Iterations != 1 || !st.Converged {
			t.Fatalf("cForwards=%v: stats %+v, want 1 dirty and %d active in one pass", tc.cForwards, st, tc.wantActive)
		}
		snap := reg.Snapshot()
		walked[tc.cForwards] = snap.Counters["core.fwd_vertices"] + snap.Counters["core.bwd_vertices"]
		cold, err := edited.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if d := closedFormDiff(incr, cold); d != "" {
			t.Fatalf("cForwards=%v: %s", tc.cForwards, d)
		}
		snap = reg.Snapshot()
		coldWalked := snap.Counters["core.fwd_vertices"] + snap.Counters["core.bwd_vertices"] - walked[tc.cForwards]
		if walked[tc.cForwards] >= coldWalked {
			t.Fatalf("cForwards=%v: the edit recomputed %d vertex sides, a cold Solve %d", tc.cForwards, walked[tc.cForwards], coldWalked)
		}
	}
	if walked[false] >= walked[true] {
		t.Fatalf("the walk stopping inside C recomputed %d vertex sides, reaching D %d", walked[false], walked[true])
	}
}

// TestDirtyBoundaryMarksNeighbours: a dirty FUB has no prior slots, so
// whether its boundary moved cannot be read off its own walk, and the
// neighbours reading it across a FUBIO edge are recomputed regardless.
// On a pair A→B, each edit routes one side of the edge through a
// stripped debug node, so the dirty FUB's boundary set becomes ∅, the
// slot a dirty vertex holds before its walk: A's output forward, or B's
// input backward. The clean neighbour must still move to ∅.
func TestDirtyBoundaryMarksNeighbours(t *testing.T) {
	build := func(aDebug, bDebug bool) *Analyzer {
		d := netlist.NewDesign("pair")
		d.AddStructure("IA", 4, 1)
		d.AddStructure("WB", 4, 1)
		// via returns src, or a debug flop fed by src in its place.
		via := func(b *netlist.Builder, debug bool, src string) string {
			if !debug {
				return src
			}
			b.M.Add(&netlist.Node{Name: "dbg", Kind: netlist.KindSeq, Width: 1,
				Inputs: []string{src}, Class: netlist.ClassDebug})
			return "dbg"
		}
		ab := netlist.Build(d.AddModule("a"))
		ab.Out("o", 1, ab.Seq("ar", 1, via(ab, aDebug, ab.SRead("ra", 1, "IA", "rd"))))
		bb := netlist.Build(d.AddModule("b"))
		bb.SWrite("wb", "WB", "wr", bb.Seq("br", 1, via(bb, bDebug, bb.In("i", 1))))
		d.AddFub("A", "a")
		d.AddFub("B", "b")
		d.ConnectPorts("A", "o", "B", "i")
		return mustAnalyze(t, d, DefaultOptions())
	}
	base := build(false, false)
	res, err := base.Solve(neutralInputs(base))
	if err != nil {
		t.Fatal(err)
	}
	prior, err := res.PriorState()
	if err != nil {
		t.Fatal(err)
	}
	for _, edited := range []*Analyzer{build(true, false), build(false, true)} {
		incr, st, err := edited.ResolveIncremental(neutralInputs(edited), prior)
		if err != nil {
			t.Fatal(err)
		}
		if st.FubsDirty != 1 || st.FubsActive != 2 {
			t.Fatalf("stats %+v, want one FUB dirty and its neighbour moved", st)
		}
		cold, err := edited.Solve(neutralInputs(edited))
		if err != nil {
			t.Fatal(err)
		}
		if d := closedFormDiff(incr, cold); d != "" {
			t.Fatal(d)
		}
	}
}

// TestActivatedFubsBoundaryMovement: on one add-flop edit (graphtest
// Small(3) at four FUBs, EditAddFlop seed 5, neutral pAVFs) the flop
// changes nothing any neighbour reads, so only the dirty F01 moves. The
// three neighbours are not recomputed past their boundary and keep their
// prior AVFs bit for bit, and the result is a cold Solve's.
func TestActivatedFubsBoundaryMovement(t *testing.T) {
	cfg := graphtest.Small(3)
	cfg.Fubs = 4
	base, err := graphtest.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, g2, _, err := base.ApplyEdit(graphtest.EditAddFlop, 5)
	if err != nil {
		t.Fatal(err)
	}
	aOld := mustAnalyzer(t, base.Graph, DefaultOptions())
	aNew := mustAnalyzer(t, g2, DefaultOptions())
	old, err := aOld.Solve(neutralInputs(aOld))
	if err != nil {
		t.Fatal(err)
	}
	prior, err := old.PriorState()
	if err != nil {
		t.Fatal(err)
	}
	incr, st, err := aNew.ResolveIncremental(neutralInputs(aNew), prior)
	if err != nil {
		t.Fatal(err)
	}
	var dirty []string
	for f, name := range aNew.G.FubNames {
		if prior.Fubs[f].Fingerprint != aNew.FubFingerprints()[f] {
			dirty = append(dirty, name)
		}
	}
	if !slices.Equal(dirty, []string{"F01"}) || st.FubsDirty != 1 || st.FubsActive != 1 || st.FubsReused != 3 {
		t.Fatalf("dirty %v, stats %+v: want F01 alone dirty and alone moved", dirty, st)
	}
	cold, err := aNew.Solve(neutralInputs(aNew))
	if err != nil {
		t.Fatal(err)
	}
	if d := closedFormDiff(incr, cold); d != "" {
		t.Fatal(d)
	}
	for f, ext := range aNew.exts {
		if aNew.G.FubNames[f] == "F01" {
			continue
		}
		for i, want := range prior.Fubs[f].AVF {
			if got := incr.AVF[ext.start+i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("FUB %s vertex %d: AVF %v, prior %v", aNew.G.FubNames[f], i, got, want)
			}
		}
	}
}

// setKey is a map key for a set's exact term-ID sequence: the content
// deduplication PriorState's table is checked against.
func setKey(s pavf.Set) string {
	b := make([]byte, 0, 4*s.Len())
	for _, id := range s.IDs() {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// TestPriorStateMatchesContentDedup pins PriorState's set table to plain
// content deduplication: the result's compacted table may only skip
// work, never change which sets are listed, in which order, or which
// index a vertex side gets. Results from a cold solve and from an
// incremental re-solve (whose reused FUBs share remapped sets) are both
// checked.
func TestPriorStateMatchesContentDedup(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		h := buildEditHarness(t, seed, graphtest.EditAddFlop)
		incr, _, err := h.aNew.ResolveIncremental(randPortInputs(h.aNew, h.inSeed), h.prior)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, r := range []*Result{h.baseRes, incr} {
			got, err := r.PriorState()
			if err != nil {
				t.Fatal(err)
			}
			var sets []pavf.Set
			ids := make(map[string]int32)
			index := func(s pavf.Set, known bool) int32 {
				if !known {
					return -1
				}
				id, ok := ids[setKey(s)]
				if !ok {
					id = int32(len(sets))
					sets = append(sets, s)
					ids[setKey(s)] = id
				}
				return id
			}
			v := 0
			for _, fp := range got.Fubs {
				for i := range fp.FwdIdx {
					x := r.Expr(graph.VertexID(v))
					if want := index(x.Fwd, x.KnownFwd); fp.FwdIdx[i] != want {
						t.Fatalf("seed %d: vertex %d forward index %d, want %d", seed, v, fp.FwdIdx[i], want)
					}
					if want := index(x.Bwd, x.KnownBwd); fp.BwdIdx[i] != want {
						t.Fatalf("seed %d: vertex %d backward index %d, want %d", seed, v, fp.BwdIdx[i], want)
					}
					v++
				}
			}
			if got.Sets.Len() != len(sets) {
				t.Fatalf("seed %d: %d sets, want %d", seed, got.Sets.Len(), len(sets))
			}
			for i := range sets {
				if !got.Sets.Set(int32(i)).Equal(sets[i]) {
					t.Fatalf("seed %d: set %d differs", seed, i)
				}
			}
		}
	}
}

// TestIntraFubCycleErrorsWhenWalked: a FUB's schedule is built the first
// time the FUB is walked, so a cycle left inside one FUB fails its own
// schedule — every time it is asked for — and the relaxation that walks
// it, while the other FUBs' schedules build cleanly.
func TestIntraFubCycleErrorsWhenWalked(t *testing.T) {
	d, err := graphtest.Generate(graphtest.Small(3))
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, d.Graph, DefaultOptions())
	var loop graph.VertexID = -1
	for v := 0; v < a.G.NumVerts(); v++ {
		if a.Role(graph.VertexID(v)) == RoleLoop {
			loop = graph.VertexID(v)
			break
		}
	}
	if loop < 0 {
		t.Fatal("design has no loop-boundary vertex")
	}
	// Un-cut the loop boundary: its FUB's down-walk now has a cycle.
	a.fwdFixed[loop] = false
	cyclic := int(a.G.Verts[loop].Fub)
	isCycle := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "core: intra-FUB cycle remains")
	}
	for f := range a.G.FubNames {
		for range 2 { // the second call reads the cached schedule
			if _, _, err := a.schedule(f); isCycle(err) != (f == cyclic) {
				t.Fatalf("FUB %d schedule: error %v (the cycle is in FUB %d)", f, err, cyclic)
			}
		}
	}
	if _, err := a.SolvePartitioned(randPortInputs(a, 1)); !isCycle(err) {
		t.Fatalf("cold relaxation: error %v, want an intra-FUB cycle", err)
	}
}

// FuzzResolveIncremental drives the differential contract with fuzzed
// cases: a graphtest design (seed, 2–8 FUBs) solved cold, one edit of
// any kind with its own seed, and an incremental re-solve from the
// prior, which must hold a cold Solve's closed forms set for set. The
// prior comes from SolvePartitioned when the edit seed is odd.
func FuzzResolveIncremental(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0), uint64(5))
	f.Add(uint64(3), uint8(4), uint8(0), uint64(5))
	f.Add(uint64(28), uint8(8), uint8(3), uint64(28))
	f.Add(uint64(14), uint8(2), uint8(1), uint64(7))
	f.Add(uint64(9), uint8(6), uint8(2), uint64(2))
	f.Add(uint64(2), uint8(3), uint8(4), uint64(11))
	f.Fuzz(func(t *testing.T, seed uint64, fubs, kind uint8, editSeed uint64) {
		cfg := graphtest.Small(seed)
		cfg.Fubs = 2 + int(fubs)%7
		base, err := graphtest.Generate(cfg)
		if err != nil {
			t.Skip(err)
		}
		aBase, err := NewAnalyzer(base.Graph, DefaultOptions())
		if err != nil {
			t.Skip(err)
		}
		solve := aBase.Solve
		if editSeed%2 == 1 {
			solve = aBase.SolvePartitioned
		}
		res, err := solve(neutralInputs(aBase))
		if err != nil {
			t.Fatalf("base solve: %v", err)
		}
		prior, err := res.PriorState()
		if err != nil {
			t.Fatal(err)
		}
		_, g2, edit, err := base.ApplyEdit(graphtest.EditKind(int(kind)%5), editSeed)
		if err != nil {
			t.Skip(err)
		}
		aNew, err := NewAnalyzer(g2, DefaultOptions())
		if err != nil {
			t.Skip(err)
		}
		incr, st, err := aNew.ResolveIncremental(neutralInputs(aNew), prior)
		if err != nil {
			t.Fatalf("%s: ResolveIncremental: %v", edit.Desc, err)
		}
		cold, err := aNew.Solve(neutralInputs(aNew))
		if err != nil {
			t.Fatal(err)
		}
		if d := closedFormDiff(incr, cold); d != "" {
			t.Fatalf("%s (stats %+v): %s", edit.Desc, st, d)
		}
	})
}
