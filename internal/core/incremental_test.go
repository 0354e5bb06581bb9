package core

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/netlist"
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

// editHarness solves a seeded base design, applies one seeded edit, and
// returns everything the differential assertions need.
type editHarness struct {
	base    *graphtest.Design
	baseRes *Result
	prior   *PriorState
	aNew    *Analyzer
	edit    *graphtest.Edit
	inSeed  uint64
}

func buildEditHarness(t *testing.T, seed uint64, kind graphtest.EditKind) *editHarness {
	t.Helper()
	cfg := graphtest.Small(seed)
	// Four FUBs so even a three-FUB rewire leaves a clean one: the
	// locality assertion (dirty < total) must be satisfiable for every
	// edit kind.
	cfg.Fubs = 4
	base, err := graphtest.Generate(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	aBase, err := NewAnalyzer(base.Graph, DefaultOptions())
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	inSeed := seed ^ 0xABCD1234
	res, err := aBase.SolvePartitioned(randPortInputs(aBase, inSeed))
	if err != nil {
		t.Fatalf("seed %d: base solve: %v", seed, err)
	}
	prior, err := res.PriorState()
	if err != nil {
		t.Fatalf("seed %d: PriorState: %v", seed, err)
	}
	_, g2, edit, err := base.ApplyEdit(kind, seed^0x9E3779B97F4A7C15)
	if err != nil {
		t.Fatalf("seed %d kind %v: %v", seed, kind, err)
	}
	aNew, err := NewAnalyzer(g2, DefaultOptions())
	if err != nil {
		t.Fatalf("seed %d kind %v: edited analyzer: %v", seed, kind, err)
	}
	return &editHarness{base: base, baseRes: res, prior: prior, aNew: aNew, edit: edit, inSeed: inSeed}
}

// TestIncrementalMatchesFromScratch is the differential harness: across
// 200 seeds spread over the four structural edit kinds, an incremental
// re-solve seeded from the pre-edit artifact state must converge to the
// same per-node AVFs as solving the edited design from scratch, while
// dirtying no more FUBs than the edit actually touched.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	kinds := []graphtest.EditKind{
		graphtest.EditAddFlop, graphtest.EditRemoveFlop,
		graphtest.EditRetimeCell, graphtest.EditRewireFubio,
	}
	const seeds = 50 // × 4 kinds = 200 differential cases
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= seeds; seed++ {
				h := buildEditHarness(t, seed, kind)
				in := randPortInputs(h.aNew, h.inSeed)
				incr, st, err := h.aNew.ResolveIncremental(in, h.prior)
				if err != nil {
					t.Fatalf("seed %d (%s): ResolveIncremental: %v", seed, h.edit.Desc, err)
				}
				scratch, err := h.aNew.SolvePartitioned(randPortInputs(h.aNew, h.inSeed))
				if err != nil {
					t.Fatalf("seed %d: scratch solve: %v", seed, err)
				}
				d := MaxAbsDiff(incr, scratch)
				if math.IsNaN(d) || d > h.aNew.Opts.Epsilon {
					t.Fatalf("seed %d (%s): incremental diverges from scratch by %v (dirty=%d active=%d iters=%d)",
						seed, h.edit.Desc, d, st.FubsDirty, st.FubsActive, st.Iterations)
				}
				if !incr.Converged || !scratch.Converged {
					t.Fatalf("seed %d (%s): converged incremental=%v scratch=%v",
						seed, h.edit.Desc, incr.Converged, scratch.Converged)
				}
				// Locality: the fingerprint diff may dirty only FUBs the
				// edit touched, and a local edit must leave reuse on the
				// table.
				if st.FubsDirty > len(h.edit.TouchedFubs) {
					t.Fatalf("seed %d (%s): %d FUBs dirty but the edit touched only %v",
						seed, h.edit.Desc, st.FubsDirty, h.edit.TouchedFubs)
				}
				if st.FubsDirty >= st.FubsTotal {
					t.Fatalf("seed %d (%s): local edit dirtied all %d FUBs", seed, h.edit.Desc, st.FubsTotal)
				}
				if st.FubsActive+st.FubsReused != st.FubsTotal {
					t.Fatalf("seed %d: inconsistent stats %+v", seed, st)
				}
			}
		})
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
		// the prior closed forms (Reevaluate), not a fresh walk — the walk's
		// value-based stopping rule makes fresh sets env-dependent.
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

// TestFrontierWalksOnlyMovedBoundaries pins the frontier rule on a FUB
// chain A→B→C→D with A dirty: A and its neighbour B start active, B's
// moved output activates C, and D joins only if C's walked boundary
// moves. A FUB the scan has just activated has not been walked, so its
// boundary must not count as moved in the same scan.
func TestFrontierWalksOnlyMovedBoundaries(t *testing.T) {
	for _, tc := range []struct {
		cForwards  bool
		wantActive int
	}{
		{cForwards: false, wantActive: 3},
		{cForwards: true, wantActive: 4},
	} {
		base, in := chainDesign(t, false, tc.cForwards)
		res, err := base.SolvePartitioned(in)
		if err != nil {
			t.Fatal(err)
		}
		prior, err := res.PriorState()
		if err != nil {
			t.Fatal(err)
		}
		edited, in := chainDesign(t, true, tc.cForwards)
		incr, st, err := edited.ResolveIncremental(in, prior)
		if err != nil {
			t.Fatal(err)
		}
		if st.FubsDirty != 1 || st.FubsActive != tc.wantActive || !st.Converged {
			t.Fatalf("cForwards=%v: stats %+v, want 1 dirty and %d active", tc.cForwards, st, tc.wantActive)
		}
		cold, err := edited.SolvePartitioned(in)
		if err != nil {
			t.Fatal(err)
		}
		if d := MaxAbsDiff(incr, cold); math.IsNaN(d) || d > edited.Opts.Epsilon {
			t.Fatalf("cForwards=%v: incremental diverges from cold by %v", tc.cForwards, d)
		}
	}
}

// TestActivatedFubsBoundaryMovement checks whether ResolveIncremental's
// initial active set is over-eager on one add-flop edit: graphtest
// Small(3) at four FUBs, EditAddFlop seed 5, one dirty FUB, and every
// FUB activated — the dirty one and each FUBIO neighbour. For each
// activated FUB it compares the values it reads across its boundary
// (a cross predecessor's forward value, a cross successor's backward
// value) between the prior solve and the edited design's fixpoint. A
// neighbour none of whose boundary values moved by more than Epsilon
// was walked for nothing.
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
	half := func(a *Analyzer) *Inputs {
		in := NewInputs()
		for _, sp := range a.ReadPortTerms() {
			in.ReadPorts[sp] = 0.5
		}
		for _, sp := range a.WritePortTerms() {
			in.WritePorts[sp] = 0.5
		}
		return in
	}
	aOld := mustAnalyzer(t, base.Graph, DefaultOptions())
	aNew := mustAnalyzer(t, g2, DefaultOptions())
	old, err := aOld.Solve(half(aOld))
	if err != nil {
		t.Fatal(err)
	}
	prior, err := old.PriorState()
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := aNew.ResolveIncremental(half(aNew), prior)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := aNew.Solve(half(aNew))
	if err != nil {
		t.Fatal(err)
	}
	// The set vertex v contributes across a boundary, read the way
	// fwdUnion and bwdUnion read it, named in its own design's terms.
	fwdOut := func(r *Result, v graph.VertexID) pavf.Set {
		if a := r.Analyzer; a.fwdFixed[v] {
			return a.srcs.Set(a.fwdSrc[v])
		}
		return r.Expr(v).Fwd
	}
	bwdOut := func(r *Result, v graph.VertexID) pavf.Set {
		a := r.Analyzer
		switch {
		case a.bwdFixed[v]:
			return a.srcs.Set(a.bwdSrc[v])
		case r.Expr(v).KnownBwd:
			return r.Expr(v).Bwd
		}
		return pavf.TopSet()
	}
	// oldVertex finds v's counterpart in the prior design by name.
	oldVertex := func(v graph.VertexID) graph.VertexID {
		vx := &aNew.G.Verts[v]
		b, _, ok := aOld.G.VertexBase(aNew.G.FubNames[vx.Fub], vx.Node.Name)
		if !ok {
			t.Fatalf("%s has no counterpart in the prior design", aNew.G.Name(v))
		}
		return b + graph.VertexID(vx.Bit)
	}
	// compare reports whether the value read across one boundary moved
	// by more than Epsilon, and whether its term set changed at all.
	compare := func(x, y pavf.Set) (value, set bool) {
		value = math.Abs(x.Eval(cur.Env)-y.Eval(old.Env)) > aNew.Opts.Epsilon
		set = x.Format(aNew.Universe()) != y.Format(aOld.Universe())
		return value, set
	}
	numFubs := len(aNew.G.FubNames)
	dirty := make([]bool, numFubs)
	for f := range dirty {
		dirty[f] = prior.Fubs[f].Name != aNew.G.FubNames[f] || prior.Fubs[f].Fingerprint != aNew.FubFingerprints()[f]
	}
	active := append([]bool(nil), dirty...)
	valueMoved := make([]bool, numFubs)
	setMoved := make([]bool, numFubs)
	for _, e := range aNew.G.CrossEdges {
		ff, tf := aNew.G.Verts[e.From].Fub, aNew.G.Verts[e.To].Fub
		if dirty[ff] {
			active[tf] = true
		}
		if dirty[tf] {
			active[ff] = true
		}
		v, s := compare(fwdOut(cur, e.From), fwdOut(old, oldVertex(e.From)))
		valueMoved[tf], setMoved[tf] = valueMoved[tf] || v, setMoved[tf] || s
		v, s = compare(bwdOut(cur, e.To), bwdOut(old, oldVertex(e.To)))
		valueMoved[ff], setMoved[ff] = valueMoved[ff] || v, setMoved[ff] || s
	}
	nActive := 0
	var idle []string
	for f, name := range aNew.G.FubNames {
		if !active[f] {
			continue
		}
		nActive++
		t.Logf("FUB %s: dirty=%v, a boundary value moved=%v, a boundary set moved=%v", name, dirty[f], valueMoved[f], setMoved[f])
		if !dirty[f] && !valueMoved[f] && !setMoved[f] {
			idle = append(idle, name)
		}
	}
	if nActive != st.FubsActive {
		t.Fatalf("reconstructed %d active FUBs, ResolveIncremental reports %d", nActive, st.FubsActive)
	}
	// The answer on this edit: the flop changes nothing any neighbour
	// reads, so all three neighbours are walked for nothing. An
	// activation rule that waits for a moved boundary would walk F01
	// alone; when one lands, this expectation changes with it.
	if want := []string{"F00", "F02", "F03"}; !slices.Equal(idle, want) {
		t.Fatalf("activated FUBs with no moved boundary: %v, want %v", idle, want)
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
