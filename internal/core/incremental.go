package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"seqavf/internal/obs"
	"seqavf/internal/pavf"
)

// This file implements incremental (ECO) re-solving: after a local netlist
// edit, Solve's own walk runs seeded with a prior solve's slots, and
// recomputes only the vertices the FUBs whose structure changed can
// reach through slots that actually moved. Everything else keeps its
// prior state verbatim.
//
// The scheme rests on two facts:
//
//  1. Loop cutting makes the non-fixed dependency graph a DAG
//     (NewAnalyzer's TopoOrder proves it), so each vertex's set is a
//     function of its neighbours' final sets. A vertex whose equation
//     and inputs are unchanged keeps its prior set, and one pass over
//     the topological order that recomputes the rest reaches exactly
//     the sets a cold Solve computes.
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
// time plus, per local vertex, slots in PriorState.Sets for the
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
	// Sets is the prior solve's set table, aliased from the result or the
	// decoded artifact; read-only.
	Sets pavf.CSR
	Fubs []FubPrior
}

// PriorState distills this result into the seed form ResolveIncremental
// consumes. It shares the result's set table, already deduplicated in
// first-sighting order and typically orders of magnitude smaller than
// two sets per vertex, and slices the per-vertex slots per FUB. Table
// and slots alias the result's (all are read-only); the AVFs are copied,
// because Reevaluate rewrites the result's in place.
func (r *Result) PriorState() (*PriorState, error) {
	a := r.Analyzer
	n := a.G.NumVerts()
	if len(r.Fwd) != n || len(r.Bwd) != n || len(r.AVF) != n {
		return nil, fmt.Errorf("core: result holds %d/%d set slots and %d AVFs but design %q has %d vertices",
			len(r.Fwd), len(r.Bwd), len(r.AVF), a.G.Design.Name, n)
	}
	fps := a.FubFingerprints()
	avf := append([]float64(nil), r.AVF...)
	ps := &PriorState{Design: a.G.Design.Name, Universe: a.universe, Inputs: r.Inputs,
		Sets: r.Sets, Fubs: make([]FubPrior, len(a.exts))}
	for f, ext := range a.exts {
		lo, hi := ext.start, ext.end
		ps.Fubs[f] = FubPrior{
			Name:        a.G.FubNames[f],
			Fingerprint: fps[f],
			FwdIdx:      r.Fwd[lo:hi:hi],
			BwdIdx:      r.Bwd[lo:hi:hi],
			AVF:         avf[lo:hi:hi],
		}
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
	// FubsActive counts the dirty FUBs plus the clean FUBs in which the
	// walk moved some slot.
	FubsActive int `json:"fubs_active"`
	// FubsReused counts FUBs whose converged state was taken verbatim
	// from the prior solve (FubsTotal - FubsActive).
	FubsReused int `json:"fubs_reused"`
	// Iterations is 1 when some FUB is dirty and the walk ran, 0 when
	// none is. Converged is always true: the single pass is exact.
	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`
}

// ResolveIncremental solves the design seeded from a prior solve's
// converged state: per-FUB fingerprints are diffed against the prior,
// every clean FUB is seeded with its remapped prior slots, and Solve's
// walk recomputes the dirty FUBs' vertices and their FUBIO neighbours,
// spreading to a vertex's successors (predecessors on the backward walk)
// only when its slot changed. The result's Sets, Fwd and Bwd equal a cold
// Solve's whenever the prior's do. The reused vertices keep their prior
// closed forms, so under inputs other than the prior's they follow the
// §5.1 closed-form contract — prior equations re-evaluated, exactly like
// a warm-start Reevaluate. Under Equal inputs a FUB in which no slot
// moved keeps its prior AVFs bit for bit; with zero dirty FUBs nothing
// is walked at all.
func (a *Analyzer) ResolveIncremental(in *Inputs, prior *PriorState) (*Result, *Incremental, error) {
	return a.ResolveIncrementalContext(context.Background(), in, prior)
}

// ResolveIncrementalContext is ResolveIncremental with request-scoped
// tracing: the solve_incremental span, with Solve's env, fwd, bwd and
// finish children, nests under ctx's current span.
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
	// identity (kind + name), then intern each unique prior set once
	// into this solve's table. A term the edited design no longer interns
	// marks its sets — and any FUB referencing them — dirty.
	t := a.srcs.Extend()
	slots := remapSets(prior, a.universe, t)

	priorByName := make(map[string]*FubPrior, len(prior.Fubs))
	for i := range prior.Fubs {
		priorByName[prior.Fubs[i].Name] = &prior.Fubs[i]
	}
	// moved marks the FUBs whose prior state does not stand: first the
	// dirty ones, then every FUB in which the walk moves a slot.
	moved := make([]bool, numFubs)
	fubPrior := make([]*FubPrior, numFubs)
	fwd, bwd := make([]int32, n), make([]int32, n)
	nDirty := 0
	for f := 0; f < numFubs; f++ {
		p := priorByName[a.G.FubNames[f]]
		sz := exts[f].end - exts[f].start
		ok := p != nil && p.Fingerprint == fps[f] &&
			len(p.FwdIdx) == sz && len(p.BwdIdx) == sz && len(p.AVF) == sz &&
			idxUsable(p.FwdIdx, slots) && idxUsable(p.BwdIdx, slots)
		if !ok {
			moved[f] = true
			nDirty++
			continue
		}
		fubPrior[f] = p
		base := exts[f].start
		for i := range p.FwdIdx {
			fwd[base+i], bwd[base+i] = slot(p.FwdIdx[i], slots), slot(p.BwdIdx[i], slots)
		}
	}

	if nDirty > 0 {
		// Recompute every vertex of a dirty FUB, and every vertex reading
		// one across a FUBIO edge: a dirty FUB has no prior slots to
		// compare against, and its boundary vertices may have changed
		// role, so its boundary counts as moved.
		fwdMark, bwdMark := make([]bool, n), make([]bool, n)
		for f, ext := range exts {
			if moved[f] {
				for v := ext.start; v < ext.end; v++ {
					fwdMark[v], bwdMark[v] = true, true
				}
			}
		}
		for _, e := range a.G.CrossEdges {
			if moved[a.G.Verts[e.From].Fub] {
				fwdMark[e.To] = true
			}
			if moved[a.G.Verts[e.To].Fub] {
				bwdMark[e.From] = true
			}
		}
		a.propagate(sp, t, fwd, bwd, fwdMark, bwdMark, moved)
	}
	// A FUB in which no slot moved holds the prior fixpoint exactly;
	// under identical inputs its prior AVFs ARE the evaluation result,
	// so skip re-evaluating it vertex by vertex.
	var reuse []*FubPrior
	if prior.Inputs.Equal(in) {
		reuse = make([]*FubPrior, numFubs)
		for f, p := range fubPrior {
			if !moved[f] {
				reuse[f] = p
			}
		}
	}
	nsp := sp.Child("finish")
	r := a.finishReuse(in, env, t, fwd, bwd, reuse)
	nsp.End()
	st := &Incremental{FubsTotal: numFubs, FubsDirty: nDirty, Converged: true}
	for _, m := range moved {
		if m {
			st.FubsActive++
		}
	}
	st.FubsReused = numFubs - st.FubsActive
	if nDirty > 0 {
		st.Iterations = 1
	}
	r.Iterations, r.Converged = st.Iterations, st.Converged
	reg.Counter("solve.fubs_dirty").Add(int64(st.FubsDirty))
	reg.Counter("solve.fubs_reused").Add(int64(st.FubsReused))
	reg.FixedHistogram("solve.incremental_seconds", obs.LatencyBuckets).Observe(time.Since(start).Seconds())
	reg.Counter("core.solves").Inc()
	sp.SetAttr("fubs_dirty", st.FubsDirty)
	sp.SetAttr("fubs_reused", st.FubsReused)
	sp.SetAttr("iterations", st.Iterations)
	sp.SetAttr("converged", st.Converged)
	return r, st, nil
}

// slot is a usable prior set index's slot in the solve's table: -1, an
// unknown side, stays unknown.
func slot(idx int32, slots []int32) int32 {
	if idx < 0 {
		return pavf.UnknownSlot
	}
	return slots[idx]
}

// remapSets translates the prior's deduplicated set table into uni's
// term-ID space and interns every set into t: slots[i] is prior set i's
// slot in t, or -1 when the set references a term uni does not intern
// (or an ID outside the prior universe entirely, which a corrupt
// artifact could carry).
func remapSets(prior *PriorState, uni *pavf.Universe, t *pavf.SetTable) []int32 {
	pLen := prior.Universe.Len()
	termMap := make([]pavf.TermID, pLen)
	for id := 1; id < pLen; id++ {
		termMap[id] = -1
		if nid, ok := uni.Lookup(prior.Universe.Term(pavf.TermID(id))); ok {
			termMap[id] = nid
		}
	}
	slots := make([]int32, prior.Sets.Len())
	mapped := make([]pavf.TermID, 0, 16)
	for i := range slots {
		mapped = mapped[:0]
		slots[i] = pavf.UnknownSlot
		ok := true
		for _, id := range prior.Sets.SetIDs(int32(i)) {
			if id < 0 || int(id) >= pLen || termMap[id] < 0 {
				ok = false
				break
			}
			mapped = append(mapped, termMap[id])
		}
		if ok {
			// Remapped IDs need re-sorting: the edited universe interns
			// terms in its own order.
			slices.Sort(mapped)
			slots[i] = t.Intern(slices.Compact(mapped))
		}
	}
	return slots
}

// idxUsable reports whether every set reference in idx resolves to a
// successfully remapped set (-1, "unknown side", is always usable).
func idxUsable(idx []int32, slots []int32) bool {
	for _, i := range idx {
		if i == -1 {
			continue
		}
		if i < 0 || int(i) >= len(slots) || slots[i] < 0 {
			return false
		}
	}
	return true
}
