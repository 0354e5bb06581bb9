package core

import (
	"math"
	"sort"
	"testing"

	"seqavf/internal/graph/graphtest"
	"seqavf/internal/netlist"
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
