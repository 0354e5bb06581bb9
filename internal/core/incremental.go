package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"seqavf/internal/graph"
	"seqavf/internal/obs"
	"seqavf/internal/pavf"
)

// This file implements incremental (ECO) re-solving: after a local netlist
// edit, only the FUBs whose structure actually changed — plus whatever
// FUBIO neighborhood the change perturbs — are re-walked, while every
// other FUB's converged walk state is reused verbatim from a prior solve.
//
// The scheme rests on two facts about the partitioned relaxation (§5.2):
//
//  1. Loop cutting makes the non-fixed dependency graph a global DAG
//     (NewAnalyzer's TopoOrder proves it), so the relaxation fixpoint is
//     unique. Seeding from any state — including the previous design's
//     converged state — converges to the same sets as solving cold.
//  2. Term names ("Struct.port", "fub/node", "EXT:FUB.node") are stable
//     across edits, so a prior universe's term IDs can be remapped onto
//     an edited design's universe by name; a term that no longer exists
//     simply forces the FUBs referencing it dirty.

// fubExtent is the contiguous vertex range [start, end) one FUB occupies
// in the graph's vertex array (graph.Build appends FUB by FUB).
type fubExtent struct{ start, end int }

func (a *Analyzer) fubExtents() []fubExtent {
	exts := make([]fubExtent, len(a.G.FubNames))
	for i := range exts {
		exts[i] = fubExtent{-1, -1}
	}
	for v := 0; v < a.G.NumVerts(); v++ {
		f := a.G.Verts[v].Fub
		if exts[f].start < 0 {
			exts[f].start = v
		}
		exts[f].end = v + 1
	}
	for i := range exts {
		if exts[i].start < 0 {
			exts[i] = fubExtent{}
		}
	}
	return exts
}

// FubFingerprints returns one stable hash per FUB (indexed like
// G.FubNames) covering everything that determines that FUB's closed
// forms: its vertices (name, bit, kind, class, structure binding, clock,
// role), its intra-FUB edge structure in local indices, the
// role-affecting options, and a boundary signature naming every FUBIO
// peer bit by stable labels rather than graph-global vertex IDs. Two
// designs assigning a FUB equal fingerprints produce identical equations
// for that FUB's vertices given identical boundary values, which is what
// lets ResolveIncremental reuse a prior solve's per-FUB state. They are
// computed once, in NewAnalyzer; callers must not modify the slice.
func (a *Analyzer) FubFingerprints() []uint64 { return a.fubFps }

// FubPrior is one FUB's slice of a prior solve: its fingerprint at solve
// time plus, per local vertex, indices into PriorState.Sets for the
// converged forward/backward sets (-1 = that side unknown) and the
// evaluated AVF.
type FubPrior struct {
	Name        string
	Fingerprint uint64
	FwdIdx      []int32
	BwdIdx      []int32
	AVF         []float64
}

// PriorState is the distilled converged walk state of a previously solved
// design, in a form an edited design can be seeded from: a deduplicated
// set table over the prior universe plus per-FUB vertex state keyed by
// FUB name. Obtain one from Result.PriorState (live) or
// artifact.DecodePrior (persisted).
type PriorState struct {
	Design   string
	Universe *pavf.Universe
	// Inputs the prior AVFs were evaluated under; may be nil (unknown).
	Inputs *Inputs
	Sets   []pavf.Set
	Fubs   []FubPrior
}

// setKey builds a map key for a set's exact term-ID sequence.
func setKey(s pavf.Set) string {
	ids := s.IDs()
	b := make([]byte, 4*len(ids))
	for i, id := range ids {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(id))
	}
	return string(b)
}

// setIdentity names a set's backing array: its first element and its
// length. Sets are immutable, so two sets with one identity hold the
// same terms; the converse fails (equal sets built apart), which is why
// identity is only the first lookup in PriorState.
type setIdentity struct {
	first *pavf.TermID
	n     int
}

func identityOf(s pavf.Set) setIdentity {
	ids := s.IDs()
	if len(ids) == 0 {
		return setIdentity{}
	}
	return setIdentity{&ids[0], len(ids)}
}

// PriorState distills this result into the seed form ResolveIncremental
// consumes. The set table is deduplicated: expression propagation shares
// set objects heavily, so the table is typically orders of magnitude
// smaller than two sets per vertex. A set is looked up by the identity
// of its backing array first; only the first sighting of an array builds
// its content key. Sets and their indices come out exactly as content
// deduplication alone, in first-sighting order, would give them.
func (r *Result) PriorState() (*PriorState, error) {
	a := r.Analyzer
	n := a.G.NumVerts()
	if len(r.Exprs) != n || len(r.AVF) != n {
		return nil, fmt.Errorf("core: result holds %d equations and %d AVFs but design %q has %d vertices",
			len(r.Exprs), len(r.AVF), a.G.Design.Name, n)
	}
	fps := a.FubFingerprints()
	exts := a.exts
	ps := &PriorState{Design: a.G.Design.Name, Universe: a.universe, Inputs: r.Inputs}
	// Sized from XeonLike, where a cold solve's 23k known sides share
	// about 4.5k backing arrays: n/4 skips the early growth steps.
	byIdentity := make(map[setIdentity]int32, n/4)
	byContent := make(map[string]int32)
	// Neighbouring vertices often hold the very same set on one side
	// (above all in FUBs a re-solve reused), so each side remembers its
	// last lookup before asking the maps.
	type lookup struct {
		ident setIdentity
		id    int32
	}
	lastFwd, lastBwd := lookup{id: -1}, lookup{id: -1}
	add := func(s pavf.Set, known bool, last *lookup) int32 {
		if !known {
			return -1
		}
		ident := identityOf(s)
		if last.id >= 0 && last.ident == ident {
			return last.id
		}
		id, ok := byIdentity[ident]
		if !ok {
			key := setKey(s)
			if id, ok = byContent[key]; !ok {
				id = int32(len(ps.Sets))
				ps.Sets = append(ps.Sets, s)
				byContent[key] = id
			}
			byIdentity[ident] = id
		}
		*last = lookup{ident, id}
		return id
	}
	for f := range exts {
		sz := exts[f].end - exts[f].start
		fp := FubPrior{
			Name:        a.G.FubNames[f],
			Fingerprint: fps[f],
			FwdIdx:      make([]int32, 0, sz),
			BwdIdx:      make([]int32, 0, sz),
			AVF:         make([]float64, 0, sz),
		}
		for v := exts[f].start; v < exts[f].end; v++ {
			x := r.Exprs[v]
			fp.FwdIdx = append(fp.FwdIdx, add(x.Fwd, x.KnownFwd, &lastFwd))
			fp.BwdIdx = append(fp.BwdIdx, add(x.Bwd, x.KnownBwd, &lastBwd))
			fp.AVF = append(fp.AVF, r.AVF[v])
		}
		ps.Fubs = append(ps.Fubs, fp)
	}
	return ps, nil
}

// Incremental reports what one ResolveIncremental call reused versus
// recomputed.
type Incremental struct {
	// FubsTotal counts the edited design's FUBs.
	FubsTotal int `json:"fubs_total"`
	// FubsDirty counts FUBs whose prior state was unusable: fingerprint
	// mismatch, no prior entry, or a term remap failure.
	FubsDirty int `json:"fubs_dirty"`
	// FubsActive counts FUBs the relaxation actually walked: the dirty
	// set, its FUBIO neighbors, and any frontier growth.
	FubsActive int `json:"fubs_active"`
	// FubsReused counts FUBs whose converged state was taken verbatim
	// from the prior solve (FubsTotal - FubsActive).
	FubsReused int  `json:"fubs_reused"`
	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`
}

// ResolveIncremental solves the design seeded from a prior solve's
// converged state: per-FUB fingerprints are diffed against the prior,
// clean FUBs keep their walk state, and SolvePartitioned's relaxation
// iterates only the dirty FUBs plus their FUBIO neighbors — expanding
// that frontier whenever a walk moves a boundary set an inactive FUB
// consumes — until the active region converges. The fixpoint is unique (the loop-cut
// dependency graph is a DAG), so under the inputs the prior was solved
// with the result matches a from-scratch SolvePartitioned within
// Epsilon. Under different inputs the reused FUBs follow the §5.1
// closed-form contract instead — prior equations re-evaluated, exactly
// like a warm-start Reevaluate; with zero dirty FUBs and Equal inputs
// the prior AVFs are returned bit-identically.
func (a *Analyzer) ResolveIncremental(in *Inputs, prior *PriorState) (*Result, *Incremental, error) {
	return a.ResolveIncrementalContext(context.Background(), in, prior)
}

// ResolveIncrementalContext is ResolveIncremental with request-scoped
// tracing: the solve_incremental span nests under ctx's current span.
func (a *Analyzer) ResolveIncrementalContext(ctx context.Context, in *Inputs, prior *PriorState) (*Result, *Incremental, error) {
	if prior == nil {
		return nil, nil, fmt.Errorf("core: ResolveIncremental: nil prior state")
	}
	reg := a.Opts.Obs
	sp := reg.StartSpanContext(ctx, "solve_incremental")
	defer sp.End()
	start := time.Now()
	esp := sp.Child("env")
	env, err := a.buildEnv(in)
	esp.End()
	if err != nil {
		return nil, nil, err
	}
	n := a.G.NumVerts()
	numFubs := len(a.G.FubNames)
	exts := a.exts
	fps := a.FubFingerprints()
	sp.SetAttr("vertices", n)
	sp.SetAttr("fubs", numFubs)

	// Remap the prior's term space onto this analyzer's universe by term
	// identity (kind + name), then remap each unique prior set once. A
	// term the edited design no longer interns marks its sets — and any
	// FUB referencing them — dirty.
	sets, setOK := remapSets(prior, a.universe)

	priorByName := make(map[string]*FubPrior, len(prior.Fubs))
	for i := range prior.Fubs {
		priorByName[prior.Fubs[i].Name] = &prior.Fubs[i]
	}
	dirty := make([]bool, numFubs)
	fubPrior := make([]*FubPrior, numFubs)
	nDirty := 0
	for f := 0; f < numFubs; f++ {
		p := priorByName[a.G.FubNames[f]]
		sz := exts[f].end - exts[f].start
		ok := p != nil && p.Fingerprint == fps[f] &&
			len(p.FwdIdx) == sz && len(p.BwdIdx) == sz && len(p.AVF) == sz
		if ok {
			ok = idxUsable(p.FwdIdx, setOK) && idxUsable(p.BwdIdx, setOK)
		}
		if ok {
			fubPrior[f] = p
		} else {
			dirty[f] = true
			nDirty++
		}
	}

	st := &Incremental{FubsTotal: numFubs, FubsDirty: nDirty}
	finishUp := func(r *Result) {
		reg.Counter("solve.fubs_dirty").Add(int64(st.FubsDirty))
		reg.Counter("solve.fubs_reused").Add(int64(st.FubsReused))
		reg.FixedHistogram("solve.incremental_seconds", obs.LatencyBuckets).Observe(time.Since(start).Seconds())
		reg.Counter("core.solves").Inc()
		sp.SetAttr("fubs_dirty", st.FubsDirty)
		sp.SetAttr("fubs_reused", st.FubsReused)
		sp.SetAttr("iterations", st.Iterations)
		sp.SetAttr("converged", st.Converged)
		r.Iterations = st.Iterations
		r.Converged = st.Converged
	}

	if nDirty == 0 {
		// Structurally untouched design: every FUB's closed forms carry
		// over. With Equal inputs even the evaluated AVFs are reused
		// bit-for-bit — a pAVF-only edit costs one evaluation at most.
		r := &Result{Analyzer: a, Inputs: in, Env: env,
			Exprs: make([]pavf.Expr, n), AVF: make([]float64, n)}
		reuseAVF := prior.Inputs.Equal(in)
		for f := 0; f < numFubs; f++ {
			p := fubPrior[f]
			base := exts[f].start
			for i := range p.FwdIdx {
				v := base + i
				x := &r.Exprs[v]
				if idx := p.FwdIdx[i]; idx >= 0 {
					x.Fwd, x.KnownFwd = sets[idx], true
				}
				if idx := p.BwdIdx[i]; idx >= 0 {
					x.Bwd, x.KnownBwd = sets[idx], true
				}
				if reuseAVF {
					r.AVF[v] = p.AVF[i]
				} else {
					r.AVF[v] = x.Eval(env)
				}
			}
		}
		r.Visited = a.visited()
		st.FubsReused = numFubs
		st.Converged = true
		finishUp(r)
		return r, st, nil
	}

	// Initial active set: dirty FUBs plus FUBIO neighbors, both edge
	// directions (a dirty FUB perturbs downstream forward values and
	// upstream backward values alike).
	active := make([]bool, numFubs)
	copy(active, dirty)
	for _, e := range a.G.CrossEdges {
		ff, tf := a.G.Verts[e.From].Fub, a.G.Verts[e.To].Fub
		if dirty[ff] {
			active[tf] = true
		}
		if dirty[tf] {
			active[ff] = true
		}
	}

	// Seed every clean FUB — active or not — with its converged state.
	// Active clean FUBs start the relaxation from the old fixpoint;
	// inactive ones publish it as their boundary contribution.
	rx := a.newRelaxation()
	for f := 0; f < numFubs; f++ {
		p := fubPrior[f]
		if p == nil {
			continue
		}
		base := exts[f].start
		for i := range p.FwdIdx {
			v := base + i
			if idx := p.FwdIdx[i]; idx >= 0 && !a.fwdFixed[v] {
				rx.fwdPrev[v], rx.fwdPrevKnown[v] = sets[idx], true
			}
			if idx := p.BwdIdx[i]; idx >= 0 && !a.bwdFixed[v] {
				rx.bwdPrev[v], rx.bwdPrevKnown[v] = sets[idx], true
			}
			rx.prevVal[v] = a.vertexValue(graph.VertexID(v), rx.fwdPrev[v], rx.bwdPrev[v], rx.bwdPrevKnown[v], env)
		}
	}
	if err := a.relax(sp, env, rx, active); err != nil {
		return nil, nil, err
	}
	// FUBs that were never walked still hold the prior fixpoint exactly;
	// under identical inputs their prior AVFs ARE the evaluation result,
	// so skip re-evaluating them vertex by vertex.
	var reuseAVF []float64
	var reuseOK []bool
	if prior.Inputs.Equal(in) {
		reuseAVF = make([]float64, n)
		reuseOK = make([]bool, n)
		for f := 0; f < numFubs; f++ {
			p := fubPrior[f]
			if p == nil || rx.walked[f] {
				continue
			}
			base := exts[f].start
			for i, avf := range p.AVF {
				reuseAVF[base+i], reuseOK[base+i] = avf, true
			}
		}
	}
	fin := a.finishReuse(in, env, rx.fwdCur, rx.bwdCur, rx.bwdCurKnown, reuseAVF, reuseOK)
	fin.Trace = rx.trace
	for f := range active {
		if active[f] {
			st.FubsActive++
		}
	}
	st.FubsReused = numFubs - st.FubsActive
	st.Iterations = rx.iterations
	st.Converged = rx.converged
	finishUp(fin)
	return fin, st, nil
}

// remapSets translates the prior's deduplicated set table into uni's
// term-ID space. setOK[i] is false when set i references a term uni does
// not intern (or an ID outside the prior universe entirely, which a
// corrupt artifact could carry).
func remapSets(prior *PriorState, uni *pavf.Universe) (sets []pavf.Set, setOK []bool) {
	pLen := prior.Universe.Len()
	termMap := make([]pavf.TermID, pLen)
	termOK := make([]bool, pLen)
	if pLen > 0 {
		termMap[pavf.Top], termOK[pavf.Top] = pavf.Top, true
	}
	for t := 1; t < pLen; t++ {
		if id, ok := uni.Lookup(prior.Universe.Term(pavf.TermID(t))); ok {
			termMap[t], termOK[t] = id, true
		}
	}
	sets = make([]pavf.Set, len(prior.Sets))
	setOK = make([]bool, len(prior.Sets))
	mapped := make([]pavf.TermID, 0, 16)
	for i, s := range prior.Sets {
		ids := s.IDs()
		mapped = mapped[:0]
		ok := true
		for _, id := range ids {
			if id < 0 || int(id) >= pLen || !termOK[id] {
				ok = false
				break
			}
			mapped = append(mapped, termMap[id])
		}
		if ok {
			// Remapped IDs need re-sorting: the edited universe interns
			// terms in its own order.
			sets[i], setOK[i] = pavf.NewSet(mapped...), true
		}
	}
	return sets, setOK
}

// idxUsable reports whether every set reference in idx resolves to a
// successfully remapped set (-1, "unknown side", is always usable).
func idxUsable(idx []int32, setOK []bool) bool {
	for _, i := range idx {
		if i == -1 {
			continue
		}
		if i < 0 || int(i) >= len(setOK) || !setOK[i] {
			return false
		}
	}
	return true
}
