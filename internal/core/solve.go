package core

import (
	"context"
	"fmt"
	"math"

	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavf"
)

// walkStats accumulates hot-loop counters locally (no atomics in the
// per-vertex path) and publishes them to the registry once per phase.
type walkStats struct {
	fwdVerts  int64 // vertices visited by forward walks
	bwdVerts  int64 // vertices visited by backward walks
	unionOps  int64 // pairwise set unions performed
	topShorts int64 // unions short-circuited by a ⊤ collapse
}

// record adds the accumulated tallies to the solver counters.
func (w *walkStats) record(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("core.fwd_vertices").Add(w.fwdVerts)
	reg.Counter("core.bwd_vertices").Add(w.bwdVerts)
	reg.Counter("core.union_ops").Add(w.unionOps)
	reg.Counter("core.top_shortcircuits").Add(w.topShorts)
}

// Result holds the outcome of one SART run: a closed-form AVF equation per
// bit vertex plus the environment built from the supplied measurements.
type Result struct {
	Analyzer *Analyzer
	Inputs   *Inputs
	Env      pavf.Env
	// The closed-form equations (§5.1), held only as a set table: Sets
	// lists the distinct sets in first-sighting order (vertex order,
	// forward side first), and Fwd/Bwd give each vertex's slot in it
	// per direction (-1 = that side unknown). Expr(v) reads vertex v's
	// equation from them; Reevaluate plugs fresh Inputs into every
	// equation without walking. Compile and PriorState read the table
	// as it is.
	Sets     pavf.CSR
	Fwd, Bwd []int32
	// AVF caches Expr(v).Eval(Env).
	AVF []float64
	// Visited marks vertices reached by at least one walk.
	Visited []bool

	// Iterations is the number of relaxation iterations SolvePartitioned
	// executed. Solve reports 1, and ResolveIncremental 1 when the edit
	// dirtied some FUB and 0 when it dirtied none: each is one pass.
	Iterations int
	// Converged reports whether SolvePartitioned reached the set fixpoint
	// (no boundary slot moved) within Opts.Iterations. Always true for
	// Solve and ResolveIncremental, whose single pass is exact.
	Converged bool
	// Trace records, per SolvePartitioned iteration, the average
	// sequential-node pAVF per FUB — the convergence diagnostic the paper
	// plots (§6.1). Nil for Solve and ResolveIncremental.
	Trace [][]float64
}

// Solve runs the monolithic solver: one forward fixpoint and one backward
// fixpoint over the whole design in topological order. Because union and
// MIN are monotone, this is the limit the paper's walk-based relaxation
// converges to; walks "can be done in any order" (§4.1.2).
func (a *Analyzer) Solve(in *Inputs) (*Result, error) {
	return a.SolveContext(context.Background(), in)
}

// SolveContext is Solve with request-scoped tracing: the "solve" span
// (and its env/fwd/bwd/finish phase children) nests under ctx's current
// span, so a cold solve triggered by an HTTP design upload appears in
// that request's trace. The context is trace plumbing only — the solve
// itself is not cancellable mid-fixpoint.
func (a *Analyzer) SolveContext(ctx context.Context, in *Inputs) (*Result, error) {
	sp := a.Opts.Obs.StartSpanContext(ctx, "solve")
	defer sp.End()
	esp := sp.Child("env")
	env, err := a.buildEnv(in)
	esp.End()
	if err != nil {
		return nil, err
	}
	n := a.G.NumVerts()
	sp.SetAttr("vertices", n)
	t := a.srcs.Extend()
	fwd := make([]int32, n)
	bwd := make([]int32, n)
	a.propagate(sp, t, fwd, bwd, nil, nil, nil)
	nsp := sp.Child("finish")
	r := a.finishReuse(in, env, t, fwd, bwd, nil)
	nsp.End()
	r.Iterations = 1
	r.Converged = true
	a.Opts.Obs.Counter("core.solves").Inc()
	return r, nil
}

// propagate is the change-propagation walk Solve and ResolveIncremental
// share, under "fwd" and "bwd" child spans of sp: the forward walk in
// topological order, then the backward walk in reverse backward order.
// fwd and bwd hold each vertex's slot in t and are updated in place.
// Each marked vertex is recomputed with the union step reading every
// neighbour from the array being filled; when its slot changes, it marks
// its successors (its predecessors on the backward walk) and its FUB in
// moved. An unmarked vertex keeps the slot it entered with. nil marks
// recompute every vertex, which is Solve's whole-design pass; moved may
// then be nil too. Because both orders are topological, every neighbour
// a vertex reads is final when it is recomputed, so one pass reaches the
// fixpoint.
func (a *Analyzer) propagate(sp *obs.Span, t *pavf.SetTable, fwd, bwd []int32, fwdMark, bwdMark, moved []bool) {
	var ws walkStats
	fsp := sp.Child("fwd")
	for _, v := range a.topo {
		if fwdMark != nil && !fwdMark[v] {
			continue
		}
		s := a.fwdUnion(t, v, -1, fwd, nil, &ws)
		if fwdMark == nil || s == fwd[v] {
			fwd[v] = s
			continue
		}
		fwd[v] = s
		moved[a.G.Verts[v].Fub] = true
		for _, w := range a.G.Succs(v) {
			fwdMark[w] = true
		}
	}
	fsp.SetAttr("vertices", ws.fwdVerts)
	fsp.End()
	bsp := sp.Child("bwd")
	for i := len(a.bwdTopo) - 1; i >= 0; i-- {
		v := a.bwdTopo[i]
		if bwdMark != nil && !bwdMark[v] {
			continue
		}
		s := a.bwdUnion(t, v, -1, bwd, nil, &ws)
		if bwdMark == nil || s == bwd[v] {
			bwd[v] = s
			continue
		}
		bwd[v] = s
		moved[a.G.Verts[v].Fub] = true
		for _, p := range a.G.Preds(v) {
			bwdMark[p] = true
		}
	}
	bsp.SetAttr("vertices", ws.bwdVerts)
	bsp.End()
	ws.record(a.Opts.Obs)
}

// finishReuse assembles the result from a solve's walk state: fwd and
// bwd hold each vertex's propagated slots in t (bwd -1 where unknown),
// and are taken over as the result's Fwd/Bwd. Each vertex's closed form
// is resolved by role, t is compacted into the result's Sets, and the
// AVFs are evaluated once per distinct set. Where reuse[f] is non-nil,
// FUB f's AVFs are copied from that prior instead of evaluated: the
// incremental path passes the FUBs whose closed forms carried over
// unchanged under identical inputs, whose prior values are already the
// evaluation result, bit for bit. A nil reuse evaluates everything.
func (a *Analyzer) finishReuse(in *Inputs, env pavf.Env, t *pavf.SetTable, fwd, bwd []int32, reuse []*FubPrior) *Result {
	for v := range fwd {
		fwd[v], bwd[v] = a.roleSlots(graph.VertexID(v), fwd[v], bwd[v])
	}
	sets := t.Compact(fwd, bwd)
	r := &Result{
		Analyzer: a,
		Inputs:   in,
		Env:      env,
		Sets:     sets,
		Fwd:      fwd,
		Bwd:      bwd,
		AVF:      make([]float64, len(fwd)),
		Visited:  a.visited(),
	}
	val := make([]float64, sets.Len())
	for s := range val {
		val[s] = sets.Set(int32(s)).Eval(env)
	}
	for f, ext := range a.exts {
		if reuse != nil && reuse[f] != nil {
			copy(r.AVF[ext.start:ext.end], reuse[f].AVF)
			continue
		}
		for v := ext.start; v < ext.end; v++ {
			// pavf.Expr.Eval: MIN of the two sides, an unknown side 1.
			fv, bv := 1.0, 1.0
			if s := fwd[v]; s >= 0 {
				fv = val[s]
			}
			if s := bwd[v]; s >= 0 {
				bv = val[s]
			}
			if bv < fv {
				fv = bv
			}
			r.AVF[v] = fv
		}
	}
	return r
}

// roleSlots resolves vertex v's closed-form slots by role from its
// propagated slots fwd and bwd (bwd -1 where unknown). A fixed side of a
// normal vertex takes its source set; the other roles ignore
// propagation.
func (a *Analyzer) roleSlots(v graph.VertexID, fwd, bwd int32) (int32, int32) {
	switch a.roles[v] {
	case RoleStructPort, RoleLoop:
		return a.fwdSrc[v], a.fwdSrc[v]
	case RoleControl:
		// Pinned to 100%: always architecturally required ({CTRL}, whose
		// env value is 1.0).
		return a.fwdSrc[v], pavf.UnknownSlot
	case RoleDebug:
		return pavf.EmptySlot, pavf.EmptySlot
	case RoleConst:
		return pavf.TopSlot, pavf.UnknownSlot
	}
	if a.fwdFixed[v] { // pseudo input
		fwd = a.fwdSrc[v]
	}
	if a.bwdFixed[v] { // unconsumed output port
		bwd = a.bwdSrc[v]
	}
	return fwd, bwd
}

// visited marks vertices reached by a forward walk from any source or a
// backward walk from any sink — the paper's ">98% of all RTL nodes"
// coverage metric. The bitmap depends only on graph structure, so it is
// computed once per analyzer and the same slice is attached to every
// Result — holders must treat Result.Visited as read-only.
func (a *Analyzer) visited() []bool {
	a.visitedOnce.Do(func() {
		a.visitedBits = a.buildVisited()
	})
	return a.visitedBits
}

func (a *Analyzer) buildVisited() []bool {
	n := a.G.NumVerts()
	vis := make([]bool, n)
	// Forward BFS from forward-fixed vertices with non-empty sources.
	queue := make([]graph.VertexID, 0, n)
	for v := 0; v < n; v++ {
		if a.fwdFixed[v] && a.fwdSrc[v] != pavf.EmptySlot && a.roles[v] != RoleConst {
			queue = append(queue, graph.VertexID(v))
		}
	}
	seen := make([]bool, n)
	for _, v := range queue {
		seen[v] = true
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		vis[v] = true
		for _, s := range a.G.Succs(v) {
			if !seen[s] && !a.fwdFixed[s] {
				seen[s] = true
				queue = append(queue, s)
			} else if a.fwdFixed[s] {
				vis[s] = true
			}
		}
	}
	// Backward BFS from backward-fixed vertices with non-empty sinks.
	queue = queue[:0]
	seen = make([]bool, n)
	for v := 0; v < n; v++ {
		if a.bwdFixed[v] && a.bwdSrc[v] != pavf.EmptySlot {
			queue = append(queue, graph.VertexID(v))
			seen[v] = true
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		vis[v] = true
		for _, p := range a.G.Preds(v) {
			if !seen[p] && !a.bwdFixed[p] {
				seen[p] = true
				queue = append(queue, p)
			} else if a.bwdFixed[p] {
				vis[p] = true
			}
		}
	}
	return vis
}

// Reevaluate applies fresh measurements to the closed-form equations
// without re-walking the design (§5.1: "any subsequent sequential AVF
// computation ... simply needs to generate new pAVFs from the ACE model
// then plug those values into the closed form equations").
//
// It rejects inputs that were not measured for the solved design: a table
// naming structure ports this design does not have would otherwise be
// silently dropped while the design's own ports fell back to defaults,
// producing AVFs for the wrong workload binding.
func (r *Result) Reevaluate(in *Inputs) error {
	if n := r.Analyzer.G.NumVerts(); len(r.Fwd) != n || len(r.Bwd) != n || len(r.AVF) != n {
		return fmt.Errorf("core: result holds %d/%d set slots and %d AVFs but analyzer design %q has %d vertices (result/analyzer mismatch)",
			len(r.Fwd), len(r.Bwd), len(r.AVF), r.Analyzer.G.Design.Name, n)
	}
	if err := r.Analyzer.CheckInputs(in); err != nil {
		return err
	}
	env, err := r.Analyzer.buildEnv(in)
	if err != nil {
		return err
	}
	r.Inputs = in
	r.Env = env
	for v := range r.AVF {
		r.AVF[v] = r.Expr(graph.VertexID(v)).Eval(env)
	}
	return nil
}

// Expr returns vertex v's closed-form equation, read from the set table
// without allocating; its sets alias Sets and must not be modified.
func (r *Result) Expr(v graph.VertexID) pavf.Expr {
	return r.Sets.Expr(r.Fwd[v], r.Bwd[v])
}

// Equation renders vertex v's closed-form AVF equation.
func (r *Result) Equation(v graph.VertexID) string {
	return r.Expr(v).Format(r.Analyzer.universe)
}

// VisitedFraction returns the share of analyzable vertices reached by a
// walk (debug-stripped vertices are excluded from the denominator).
func (r *Result) VisitedFraction() float64 {
	return r.Analyzer.VisitedFraction(r.Visited)
}

// IsSequentialBit reports whether vertex v is a sequential (flop/latch)
// bit for statistics purposes. Structure storage is excluded: structures
// are ACE-modeled, not sequentials.
func (r *Result) IsSequentialBit(v graph.VertexID) bool {
	vx := &r.Analyzer.G.Verts[v]
	return vx.Node.Kind == netlist.KindSeq && r.Analyzer.roles[v] != RoleDebug
}

// FubStat summarizes one FUB after resolution — one bar of Figure 9.
type FubStat struct {
	Fub string
	// SeqBits / NodeBits count sequential and total analyzable bits.
	SeqBits  int
	NodeBits int
	// AvgSeqAVF and AvgNodeAVF are unweighted means over those bits.
	AvgSeqAVF  float64
	AvgNodeAVF float64
	// LoopSeqBits counts loop-boundary sequential bits (§4.3 reports
	// 2–3% of sequentials in loops).
	LoopSeqBits int
	// CtrlBits counts identified control-register bits.
	CtrlBits int
}

// FubStats aggregates per-FUB statistics in FUB declaration order: node
// stats cover combinational and sequential bits alike (structure ports
// are wires, counted as nodes), debug and constant bits excluded. Each
// mean sums its bits in vertex order (see SummaryLayout).
func (r *Result) FubStats() []FubStat {
	return r.Analyzer.SummaryLayout().fubStats(r.AVF)
}

// Summary aggregates design-wide statistics.
type Summary struct {
	SeqBits         int
	NodeBits        int
	LoopSeqBits     int
	CtrlBits        int
	WeightedSeqAVF  float64 // weighted by per-FUB sequential bit count
	WeightedNodeAVF float64
	VisitedFraction float64
	LoopSeqFraction float64
	Iterations      int
	Converged       bool
}

// Summarize computes the design-wide weighted averages the paper reports
// (weighted "to account for the actual number of sequentials in each FUB"):
// the FubStats means recombined in FUB order, through the same
// SummaryLayout reduction the sweep engine's summary path uses.
func (r *Result) Summarize() Summary {
	var s [1]Summary
	r.Analyzer.SummaryLayout().Summaries(r.AVF, s[:])
	s[0].VisitedFraction = r.VisitedFraction()
	s[0].Iterations = r.Iterations
	s[0].Converged = r.Converged
	return s[0]
}

// SeqAVFByNode returns the average AVF per sequential node (averaging the
// node's bits in vertex order), keyed by "fub/node".
func (r *Result) SeqAVFByNode() map[string]float64 {
	var m [1]map[string]float64
	r.Analyzer.SummaryLayout().NodeAVFs(r.AVF, m[:])
	return m[0]
}

// MaxAbsDiff returns the largest absolute per-vertex AVF difference
// between two results over the same analyzer (used to verify that the
// partitioned relaxation converges to the monolithic fixpoint). Results
// with differing vertex counts are incomparable: MaxAbsDiff returns NaN
// instead of indexing out of range. Callers comparing against a tolerance
// must check math.IsNaN explicitly — any comparison with NaN is false.
func MaxAbsDiff(a, b *Result) float64 {
	if len(a.AVF) != len(b.AVF) {
		return math.NaN()
	}
	max := 0.0
	for v := range a.AVF {
		d := math.Abs(a.AVF[v] - b.AVF[v])
		if d > max {
			max = d
		}
	}
	return max
}
