package core

import (
	"fmt"
	"math"
	"sync"

	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavf"
)

// iterDeltaBuckets is the fixed layout of the core.iter_delta histogram
// (the largest per-vertex pAVF change of one relaxation iteration): one
// bucket per decade from 1e-12, below the default Epsilon of 1e-9, up
// to 1, the largest change a pAVF in [0, 1] can make.
var iterDeltaBuckets = []float64{
	1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1,
}

// SolvePartitioned runs the paper's operational tool flow (§5.2): the
// design is processed one FUB at a time, each iteration performing one
// down-walk and one up-walk per FUB against the FUBIO boundary values
// merged at the end of the previous iteration. A pAVF value therefore
// crosses at most one partition boundary per iteration, and the process
// repeats until the values reach steady state (the paper found 20
// iterations sufficient) or Opts.Iterations is exhausted.
//
// The converged result equals the monolithic Solve fixpoint; the value of
// this entry point is operational fidelity (bounded per-FUB memory) plus
// the per-iteration convergence trace the paper plots.
func (a *Analyzer) SolvePartitioned(in *Inputs) (*Result, error) {
	reg := a.Opts.Obs
	sp := reg.StartSpan("solve_partitioned")
	defer sp.End()
	esp := sp.Child("env")
	env, err := a.buildEnv(in)
	esp.End()
	if err != nil {
		return nil, err
	}
	numFubs := len(a.G.FubNames)
	sp.SetAttr("vertices", a.G.NumVerts())
	sp.SetAttr("fubs", numFubs)
	active := make([]bool, numFubs)
	for f := range active {
		active[f] = true
	}
	rx := a.newRelaxation(a.srcs.Extend())
	if err := a.relax(sp, env, rx, active); err != nil {
		return nil, err
	}
	nsp := sp.Child("finish")
	r := a.finishReuse(in, env, rx.t, rx.fwdCur, rx.bwdCur, nil)
	nsp.End()
	r.Iterations, r.Converged, r.Trace = rx.iterations, rx.converged, rx.trace
	reg.Counter("core.solves").Inc()
	sp.SetAttr("iterations", r.Iterations)
	sp.SetAttr("converged", r.Converged)
	return r, nil
}

// relaxation is the state of one FUB-partitioned relaxation: the solve's
// set table t and, per vertex, the FUBIO slots merged at the end of the
// previous iteration (prev), the slots this iteration's walks produce
// (cur), and the value the convergence test compares against. A slot of
// -1 is an unknown side. A caller may seed prev and prevVal with a prior
// fixpoint before relax runs; unseeded, every boundary starts unknown
// (⊤) and every value at 1.
type relaxation struct {
	t                                *pavf.SetTable
	fwdPrev, bwdPrev, fwdCur, bwdCur []int32
	prevVal                          []float64
	// walked marks FUBs walked at least once; the others keep their seed.
	walked     []bool
	iterations int
	converged  bool
	trace      [][]float64
}

func (a *Analyzer) newRelaxation(t *pavf.SetTable) *relaxation {
	n := a.G.NumVerts()
	rx := &relaxation{
		t:       t,
		fwdPrev: make([]int32, n),
		bwdPrev: make([]int32, n),
		fwdCur:  make([]int32, n),
		bwdCur:  make([]int32, n),
		prevVal: make([]float64, n),
		walked:  make([]bool, len(a.G.FubNames)),
	}
	for v := range rx.prevVal {
		rx.fwdPrev[v], rx.bwdPrev[v] = pavf.UnknownSlot, pavf.UnknownSlot
		rx.prevVal[v] = 1
	}
	return rx
}

// relax iterates the relaxation over the FUBs marked in active (§5.2).
// Each iteration walks every active FUB down and up, Jacobi style —
// cross-FUB contributions come from the previous iteration's merge —
// then grows the active set along any FUBIO edge whose walked value
// moved, and merges the walked FUBs' values as the next iteration's
// boundary. It stops when no value moved by more than Epsilon and the
// active set did not grow, or after Opts.Iterations. With every FUB
// active the frontier never grows, which is the cold relaxation.
//
// Each iteration emits an "iteration" child span of sp carrying the
// largest per-vertex change (max_delta) and the per-FUB average
// sequential pAVF (fub_avg_pavf), which is also appended to rx.trace.
// On return every never-walked FUB's seed is copied into the cur arrays,
// so they hold the whole design's state.
func (a *Analyzer) relax(sp *obs.Span, env pavf.Env, rx *relaxation, active []bool) error {
	reg := a.Opts.Obs
	exts := a.exts
	// fubAvg is the running trace row. An entry is refreshed whenever its
	// FUB is merged, so only FUBs the first iteration leaves unwalked need
	// their seeded average up front.
	fubAvg := make([]float64, len(exts))
	for f := range fubAvg {
		if !active[f] {
			fubAvg[f] = a.seqAvg(exts[f], rx.prevVal)
		}
	}
	var ws walkStats
	for iter := 1; iter <= a.Opts.Iterations; iter++ {
		rx.iterations = iter
		isp := sp.Child("iteration")
		isp.SetAttr("iter", iter)
		for f := range exts {
			if !active[f] {
				continue
			}
			fwd, bwd, err := a.schedule(f)
			if err != nil {
				return err
			}
			rx.walked[f] = true
			for _, v := range fwd {
				rx.fwdCur[v] = a.fwdUnion(rx.t, v, int32(f), rx.fwdCur, rx.fwdPrev, &ws)
			}
			for i := len(bwd) - 1; i >= 0; i-- {
				v := bwd[i]
				rx.bwdCur[v] = a.bwdUnion(rx.t, v, int32(f), rx.bwdCur, rx.bwdPrev, &ws)
			}
		}
		// Frontier expansion: an inactive FUB holds its seed assuming its
		// boundary stays at the prior fixpoint. If a walk just moved a
		// value it consumes (a cross predecessor's forward set, a cross
		// successor's backward set), that assumption broke — pull it into
		// the active region. Set identity (an equal slot) is a stricter
		// test than the Epsilon value delta: any numeric movement implies
		// set movement.
		// Only walked FUBs are compared: one this scan has just activated
		// holds no walk result yet, and reading its unset cur arrays would
		// count its seed as moved and activate its neighbours in turn.
		grew := false
		for _, e := range a.G.CrossEdges {
			ff, tf := a.G.Verts[e.From].Fub, a.G.Verts[e.To].Fub
			if rx.walked[ff] && !active[tf] {
				u := e.From
				if !a.fwdFixed[u] && rx.fwdCur[u] != rx.fwdPrev[u] {
					active[tf] = true
					grew = true
				}
			}
			if rx.walked[tf] && !active[ff] {
				w := e.To
				if !a.bwdFixed[w] && rx.bwdCur[w] != rx.bwdPrev[w] {
					active[ff] = true
					grew = true
				}
			}
		}
		// Merge step: publish the walked FUBs' values as the FUBIO tables
		// for the next iteration and measure the change for convergence.
		// A FUB the frontier scan just activated keeps its seed until its
		// first walk.
		maxDelta := 0.0
		for f, ext := range exts {
			if !rx.walked[f] {
				continue
			}
			for v := ext.start; v < ext.end; v++ {
				rx.fwdPrev[v], rx.bwdPrev[v] = rx.fwdCur[v], rx.bwdCur[v]
				val := a.vertexValue(rx.t, graph.VertexID(v), rx.fwdCur[v], rx.bwdCur[v], env)
				if d := math.Abs(val - rx.prevVal[v]); d > maxDelta {
					maxDelta = d
				}
				rx.prevVal[v] = val
			}
			fubAvg[f] = a.seqAvg(ext, rx.prevVal)
		}
		row := append([]float64(nil), fubAvg...)
		rx.trace = append(rx.trace, row)
		isp.SetAttr("max_delta", maxDelta)
		isp.SetAttr("fub_avg_pavf", row)
		isp.End()
		reg.FixedHistogram("core.iter_delta", iterDeltaBuckets).Observe(maxDelta)
		reg.Gauge("core.max_delta").Set(maxDelta)
		if maxDelta <= a.Opts.Epsilon && !grew {
			rx.converged = true
			break
		}
	}
	for f, ext := range exts {
		if rx.walked[f] {
			continue
		}
		for v := ext.start; v < ext.end; v++ {
			rx.fwdCur[v], rx.bwdCur[v] = rx.fwdPrev[v], rx.bwdPrev[v]
		}
	}
	ws.record(reg)
	reg.Counter("core.iterations").Add(int64(rx.iterations))
	return nil
}

// seqAvg is the average of val over ext's analyzable sequential bits,
// summed in vertex order (0 for a FUB without any): one trace entry.
func (a *Analyzer) seqAvg(ext fubExtent, val []float64) float64 {
	sum, cnt := 0.0, 0
	for v := ext.start; v < ext.end; v++ {
		if a.G.Verts[v].Node.Kind == netlist.KindSeq && a.roles[v] != RoleDebug {
			sum += val[v]
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// vertexValue resolves a vertex's numeric AVF from in-flight propagation
// state (slots in t, bwd -1 where unknown), through the role handling
// finishReuse applies.
func (a *Analyzer) vertexValue(t *pavf.SetTable, v graph.VertexID, fwd, bwd int32, env pavf.Env) float64 {
	fwd, bwd = a.roleSlots(v, fwd, bwd)
	f, b := 1.0, 1.0
	if fwd >= 0 {
		f = t.Set(fwd).Eval(env)
	}
	if bwd >= 0 {
		b = t.Set(bwd).Eval(env)
	}
	return math.Min(f, b)
}

// fwdUnion computes the forward slot of a non-fwd-fixed vertex v of FUB
// fub as the union in t of its predecessors' contributions: a fwd-fixed
// predecessor gives its source set, one in the same FUB its cur slot
// (final, as walks run in topological order), and one across a FUB
// boundary its prev slot, or ⊤ while that is unknown. A nil prev reads
// every predecessor from cur: Solve's single pass over the whole design.
// Walk tallies accumulate into st.
func (a *Analyzer) fwdUnion(t *pavf.SetTable, v graph.VertexID, fub int32, cur, prev []int32, st *walkStats) int32 {
	st.fwdVerts++
	acc := pavf.EmptySlot
	for _, p := range a.G.Preds(v) {
		var contrib int32
		switch {
		case a.fwdFixed[p]:
			contrib = a.fwdSrc[p]
		case prev == nil || a.G.Verts[p].Fub == fub:
			contrib = cur[p]
		case prev[p] >= 0:
			contrib = prev[p]
		default:
			contrib = pavf.TopSlot
		}
		st.unionOps++
		acc = t.Union(acc, contrib)
		if acc == pavf.TopSlot {
			st.topShorts++
			return acc
		}
	}
	return acc
}

// bwdUnion computes the backward slot of a non-bwd-fixed vertex v of FUB
// fub from its successors' contributions, reading same-FUB successors
// from cur and cross-FUB ones from prev, each ⊤ while unknown; a nil prev
// reads every successor from cur, as for fwdUnion. The slot is -1
// (unknown) when v has no successors at all: a dangling node keeps its
// conservative 1.0. Walk tallies accumulate into st.
func (a *Analyzer) bwdUnion(t *pavf.SetTable, v graph.VertexID, fub int32, cur, prev []int32, st *walkStats) int32 {
	st.bwdVerts++
	succs := a.G.Succs(v)
	if len(succs) == 0 {
		return pavf.UnknownSlot
	}
	acc := pavf.EmptySlot
	for _, s := range succs {
		var contrib int32
		switch {
		case a.bwdFixed[s]:
			contrib = a.bwdSrc[s]
		case prev == nil || a.G.Verts[s].Fub == fub:
			contrib = cur[s]
		default:
			contrib = prev[s]
		}
		if contrib < 0 {
			contrib = pavf.TopSlot
		}
		st.unionOps++
		acc = t.Union(acc, contrib)
		if acc == pavf.TopSlot {
			st.topShorts++
			return acc
		}
	}
	return acc
}

// fubSchedule is one FUB's walk schedule: topological orders of its
// non-fixed vertices over intra-FUB edges only, forward for the
// down-walk and (read in reverse) backward for the up-walk.
type fubSchedule struct {
	once     sync.Once
	fwd, bwd []graph.VertexID
	err      error
}

// schedule returns FUB f's walk schedule, building it the first time f
// is walked. The schedule is shared by every later solve on this
// analyzer — callers must not mutate the returned slices.
func (a *Analyzer) schedule(f int) (fwd, bwd []graph.VertexID, err error) {
	s := &a.scheds[f]
	s.once.Do(func() {
		ext := a.exts[f]
		if s.fwd, s.err = a.localTopo(ext, a.fwdFixed); s.err == nil {
			s.bwd, s.err = a.localTopo(ext, a.bwdFixed)
		}
	})
	return s.fwd, s.bwd, s.err
}

// localTopo orders ext's vertices not marked fixed so that every
// intra-FUB edge between two of them runs forward (Kahn's algorithm).
func (a *Analyzer) localTopo(ext fubExtent, fixed []bool) ([]graph.VertexID, error) {
	in := func(v graph.VertexID) bool { return int(v) >= ext.start && int(v) < ext.end }
	indeg := make([]int32, ext.end-ext.start)
	want := 0
	for v := ext.start; v < ext.end; v++ {
		if fixed[v] {
			continue
		}
		want++
		for _, p := range a.G.Preds(graph.VertexID(v)) {
			if !fixed[p] && in(p) {
				indeg[v-ext.start]++
			}
		}
	}
	out := make([]graph.VertexID, 0, want)
	var queue []graph.VertexID
	for v := ext.start; v < ext.end; v++ {
		if !fixed[v] && indeg[v-ext.start] == 0 {
			queue = append(queue, graph.VertexID(v))
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		out = append(out, v)
		for _, s := range a.G.Succs(v) {
			if fixed[s] || !in(s) {
				continue
			}
			indeg[int(s)-ext.start]--
			if indeg[int(s)-ext.start] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(out) != want {
		return nil, fmt.Errorf("core: intra-FUB cycle remains (%d of %d ordered)", len(out), want)
	}
	return out, nil
}
