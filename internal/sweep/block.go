// Blocked multi-workload evaluation: the one kernel that evaluates a
// compiled plan.
//
// Walking the CSR index arrays (setOff/setIDs/fwdIdx/bwdIdx) once per
// workload would stream the same plan indices 1000 times for a
// 1000-workload sweep. The kernel instead lays W workloads'
// environments out as an EnvMatrix in structure-of-arrays order —
// term-major, workload-lane-minor, so all W values of one term sit in one
// contiguous row — and traverses the plan ONCE per block: every subterm
// set is summed across all lanes before the next set's indices are
// touched, and the per-pair MIN pass reads the slot pairs once for all W
// workloads. Per-workload cost drops to the arithmetic itself; the index
// traffic is amortized W ways (the positional-popcount blocking idea,
// applied to saturating sums).
//
// The kernel replays pavf's arithmetic exactly — per-lane sums add terms
// in ascending TermID order and saturate at exactly 1.0, after which the
// lane is excluded from further adds just as Set.Eval's break stops its
// sum — so every lane's AVFs are bit-identical to Result.Reevaluate
// (pavf.Expr.Eval per vertex) for every block width and every ragged
// tail.
//
// The kernel ends in per-(fwd, bwd)-pair values and feeds three sinks.
// The materializing sink (EvalBlock and EvalBlockInto, which the
// experiments.Symbolic study calls block by block, and
// Engine.SweepContext, whose one caller outside tests is the benchmark
// module's replay) broadcasts them out to per-vertex AVF vectors. The
// summary sink (behind Engine.SweepSummariesContext, which serves every
// sweep report and every interval sweep) reduces them straight into
// core.Summary values and node maps through the plan's remapped
// core.SummaryLayout, so no vector is ever built. The mean sink (behind
// Engine.MeanContext, which serves hardening) keeps one row of pair
// values per workload and broadcasts only their workload-order mean.
// The reductions equal Result.Summarize, SeqAVFByNode and the
// workload-order mean on the broadcast vectors, bit for bit.

package sweep

import (
	"fmt"

	"seqavf/internal/core"
	"seqavf/internal/pavf"
)

// DefaultBlockSize is the engine's lane width: 16 lanes make every term row two cache lines of float64, wide enough to
// amortize the plan traversal and small enough that the scratch matrix
// (NumSets x 16) stays cache-resident for typical plans.
const DefaultBlockSize = 16

// EnvMatrix holds a block of per-workload term environments in SoA order:
// term-major, workload-lane-minor, so vals[t*lanes : (t+1)*lanes] is term
// t's pAVF across every lane. Build it with Reset (from workloads, with
// full input validation) or ResetEnvs (from prebuilt environments); the
// SoA buffer is reused across Resets, so one matrix per worker serves a
// whole sweep. The zero value is an empty matrix ready for Reset.
type EnvMatrix struct {
	lanes int
	terms int
	vals  []float64
	// envs are the per-lane environments the matrix was transposed from;
	// they are freshly allocated by Reset (never pooled) because the
	// Results evaluated from this block adopt them.
	envs []pavf.Env
}

// Lanes returns the number of workload lanes in the matrix.
func (m *EnvMatrix) Lanes() int { return m.lanes }

// Terms returns the number of terms per lane (the universe length).
func (m *EnvMatrix) Terms() int { return m.terms }

// Env returns lane w's environment (the one its Result adopts).
func (m *EnvMatrix) Env(w int) pavf.Env { return m.envs[w] }

// At returns term id's value in lane w.
func (m *EnvMatrix) At(id pavf.TermID, w int) float64 {
	return m.vals[int(id)*m.lanes+w]
}

// Reset rebuilds the matrix for one block of workloads against a: each
// lane goes through the fused CheckInputs+BuildEnv
// (core.Analyzer.CheckedEnv), then pavf.Env.Validate gates the
// result — a NaN, Inf, or out-of-range pAVF is rejected here, at build
// time, and never reaches the kernel. Errors name the offending
// workload. The SoA buffer is reused; the per-lane environments are
// fresh allocations.
func (m *EnvMatrix) Reset(a *core.Analyzer, ws []Workload) error {
	envs := make([]pavf.Env, len(ws))
	for i, w := range ws {
		env, err := a.CheckedEnv(w.Inputs)
		if err != nil {
			return fmt.Errorf("sweep: workload %q: %w", w.Name, err)
		}
		if err := env.Validate(); err != nil {
			return fmt.Errorf("sweep: workload %q: %w", w.Name, err)
		}
		envs[i] = env
	}
	m.adopt(envs)
	return nil
}

// ResetEnvs rebuilds the matrix from prebuilt environments. Every lane
// must have the same length and pass pavf.Env.Validate; a ragged or
// non-finite lane is refused so the kernel never indexes out of range or
// propagates NaN.
func (m *EnvMatrix) ResetEnvs(envs []pavf.Env) error {
	var terms int
	if len(envs) > 0 {
		terms = len(envs[0])
	}
	for w, env := range envs {
		if len(env) != terms {
			return fmt.Errorf("sweep: env matrix lane %d has %d terms, lane 0 has %d", w, len(env), terms)
		}
		if err := env.Validate(); err != nil {
			return fmt.Errorf("sweep: env matrix lane %d: %w", w, err)
		}
	}
	m.adopt(envs)
	return nil
}

// adopt transposes validated environments into the SoA buffer.
func (m *EnvMatrix) adopt(envs []pavf.Env) {
	lanes := len(envs)
	terms := 0
	if lanes > 0 {
		terms = len(envs[0])
	}
	m.lanes, m.terms, m.envs = lanes, terms, envs
	need := lanes * terms
	if cap(m.vals) < need {
		m.vals = make([]float64, need)
	} else {
		m.vals = m.vals[:need]
	}
	for t := 0; t < terms; t++ {
		row := m.vals[t*lanes : (t+1)*lanes]
		for w := 0; w < lanes; w++ {
			row[w] = envs[w][t]
		}
	}
}

// ScratchLen returns the scratch length the blocked kernel needs for a
// given lane count: an SoA running-sum row per subterm set, plus an SoA
// value row per unique (fwd, bwd) slot pair.
func (p *Plan) ScratchLen(lanes int) int {
	return (p.NumSets() + len(p.pairFwd)) * lanes
}

// EvalBlock resolves every vertex AVF for every lane of m in one plan
// traversal, writing lane w's per-vertex AVFs into out[w]. scratch needs
// ScratchLen(Lanes()) entries (per-set running sums followed by the
// per-pair value rows, both SoA like the matrix). Shape mismatches are
// errors, not panics. Results are bit-identical to evaluating each
// lane's environment through the closed forms (pavf.Expr.Eval).
func (p *Plan) EvalBlock(m *EnvMatrix, scratch []float64, out [][]float64) error {
	if m.lanes == 0 {
		return nil
	}
	if len(out) != m.lanes {
		return fmt.Errorf("sweep: %d output vectors for %d lanes", len(out), m.lanes)
	}
	nv := p.NumVerts()
	for w, o := range out {
		if len(o) != nv {
			return fmt.Errorf("sweep: output vector %d has %d entries, plan has %d vertices", w, len(o), nv)
		}
	}
	pv, err := p.EvalPairs(m, scratch)
	if err != nil {
		return err
	}
	p.broadcast(pv, out)
	return nil
}

// EvalPairs runs the kernel on every lane of m and returns the per-pair
// values, SoA (pair pi's value in lane w at [pi*Lanes()+w]), as a view
// into scratch, which needs ScratchLen(Lanes()) entries. Vertex v's AVF
// in lane w is its pair's value (see VertexRuns), bit-identical to
// EvalBlock's. Shape mismatches are errors; an empty matrix yields nil.
func (p *Plan) EvalPairs(m *EnvMatrix, scratch []float64) ([]float64, error) {
	if m.lanes == 0 {
		return nil, nil
	}
	if want := p.Analyzer.Universe().Len(); m.terms != want {
		return nil, fmt.Errorf("sweep: env matrix has %d terms but design %q has a universe of %d",
			m.terms, p.Analyzer.G.Design.Name, want)
	}
	if need := p.ScratchLen(m.lanes); len(scratch) < need {
		return nil, fmt.Errorf("sweep: scratch has %d entries, block kernel needs %d", len(scratch), need)
	}
	return p.pairValues(m, scratch), nil
}

// NumPairs returns the number of unique (fwd, bwd) slot pairs: the
// values per lane the kernel computes before any sink.
func (p *Plan) NumPairs() int { return len(p.pairFwd) }

// VertexRuns returns the run-length-encoded vertex->pair map: run r
// covers vertices [off[r], off[r+1]), every one resolving to pair
// pair[r]. The slices alias the plan and are read-only.
func (p *Plan) VertexRuns() (off, pair []int32) { return p.runOff, p.runPair }

// pairValues is the blocked kernel proper; it returns the per-pair
// values, SoA (pair pi's value in lane w at [pi*lanes+w]), in scratch.
// Pass 1 streams the CSR set table once, accumulating all lanes of each
// set before moving on; the per-lane saturation `min(1, sum+term)` is
// bit-identical to Set.Eval's capped break — sums of validated in-[0,1]
// terms are monotone, and a lane pinned at exactly 1.0 stays there for
// every later add. Pass 2 exploits MIN sharing: vertices with the same
// (fwd, bwd) slot pair resolve identically, so each lane computes one
// MIN per unique pair (an unknown side is a conservative 1.0, and set
// sums never exceed 1, so the MIN collapses to the known side). Both
// passes replay Set.Eval and Expr.Eval exactly. The sinks then either
// broadcast the pair values out to vertices (broadcast) or reduce them
// through the plan's summary layout without touching a per-vertex
// vector (summaries, and SummaryLayout.NodeAVFs).
func (p *Plan) pairValues(m *EnvMatrix, scratch []float64) []float64 {
	lanes := m.lanes
	vals := m.vals
	nSets := len(p.setOff) - 1
	sums := scratch[:nSets*lanes]
	for s := 0; s < nSets; s++ {
		row := sums[s*lanes : s*lanes+lanes]
		for w := range row {
			row[w] = 0
		}
		for _, id := range p.setIDs[p.setOff[s]:p.setOff[s+1]] {
			col := vals[int(id)*lanes : int(id)*lanes+lanes]
			col = col[:len(row)]
			for w := range row {
				row[w] = min(1, row[w]+col[w])
			}
		}
	}
	pv := scratch[nSets*lanes : (nSets+len(p.pairFwd))*lanes]
	for pi, fi := range p.pairFwd {
		bi := p.pairBwd[pi]
		row := pv[pi*lanes : pi*lanes+lanes]
		switch {
		case fi >= 0 && bi >= 0:
			f := sums[int(fi)*lanes : int(fi)*lanes+lanes]
			b := sums[int(bi)*lanes : int(bi)*lanes+lanes]
			f, b = f[:len(row)], b[:len(row)]
			for w := range row {
				row[w] = min(f[w], b[w])
			}
		case fi >= 0:
			copy(row, sums[int(fi)*lanes:int(fi)*lanes+lanes])
		case bi >= 0:
			copy(row, sums[int(bi)*lanes:int(bi)*lanes+lanes])
		default:
			for w := range row {
				row[w] = 1
			}
		}
	}
	return pv
}

// broadcast writes each lane's pair values out to its vertices through
// the run-length-encoded vertex->pair map: one constant fill per run.
func (p *Plan) broadcast(pv []float64, out [][]float64) {
	lanes := len(out)
	for w, o := range out {
		for r, pi := range p.runPair {
			c := pv[int(pi)*lanes+w]
			seg := o[p.runOff[r]:p.runOff[r+1]]
			for i := range seg {
				seg[i] = c
			}
		}
	}
}

// summaries reduces the pair values of len(out) lanes to their design
// summaries through the plan's remapped summary layout: the same sums,
// in the same order, that Result.Summarize performs over the broadcast
// vector, so the two agree bit for bit.
func (p *Plan) summaries(pv []float64, out []core.Summary) {
	p.layout.Summaries(pv, out)
	for w := range out {
		out[w].VisitedFraction = p.visitedFrac
		out[w].Iterations = 1
		out[w].Converged = true
	}
}

// EvalBlockInto evaluates one block of workloads through the plan,
// writing a full core.Result per workload into dst (index-aligned with
// ws). m is reset for the block — its SoA buffer is reused, so one matrix
// per worker serves a whole sweep; a nil m uses a throwaway. scratch must
// hold ScratchLen(len(ws)) entries (nil allocates). Each Result's AVF
// vector is a view into one fresh per-block backing array, and its Env is
// the lane's freshly built environment; AVF vectors are bit-identical to
// Result.Reevaluate under the same inputs.
func (p *Plan) EvalBlockInto(ws []Workload, m *EnvMatrix, scratch []float64, dst []*core.Result) error {
	if len(dst) != len(ws) {
		return fmt.Errorf("sweep: %d result slots for %d workloads", len(dst), len(ws))
	}
	return p.evalBlock(ws, m, scratch, dst, nil, nil)
}

// evalBlock is the engine's per-block step: reset m for ws, run the
// kernel once, and feed every non-nil sink — materialized Results,
// reduced summaries, per-node maps — from the same pair values.
func (p *Plan) evalBlock(ws []Workload, m *EnvMatrix, scratch []float64, dst []*core.Result, sums []core.Summary, nodes []map[string]float64) error {
	if m == nil {
		m = new(EnvMatrix)
	}
	pv, err := p.kernel(ws, m, scratch)
	if err != nil || pv == nil {
		return err
	}
	lanes := len(ws)
	if dst != nil {
		nv := p.NumVerts()
		buf := make([]float64, lanes*nv)
		out := make([][]float64, lanes)
		for w := range out {
			out[w] = buf[w*nv : (w+1)*nv : (w+1)*nv]
		}
		p.broadcast(pv, out)
		for w := range ws {
			dst[w] = &core.Result{
				Analyzer:   p.Analyzer,
				Inputs:     ws[w].Inputs,
				Env:        m.envs[w],
				Exprs:      p.exprs,
				Sets:       pavf.CSR{Off: p.setOff, IDs: p.setIDs},
				Fwd:        p.fwdIdx,
				Bwd:        p.bwdIdx,
				AVF:        out[w],
				Visited:    p.visited,
				Iterations: 1,
				Converged:  true,
			}
		}
	}
	if sums != nil {
		p.summaries(pv, sums)
	}
	if nodes != nil {
		p.layout.NodeAVFs(pv, nodes)
	}
	return nil
}

// kernel resets m for ws and runs the blocked kernel once, returning
// the block's pair values (see pairValues); nil for an empty block.
// scratch is grown when too short.
func (p *Plan) kernel(ws []Workload, m *EnvMatrix, scratch []float64) ([]float64, error) {
	if err := m.Reset(p.Analyzer, ws); err != nil {
		return nil, err
	}
	if len(ws) == 0 {
		return nil, nil
	}
	if need := p.ScratchLen(len(ws)); len(scratch) < need {
		scratch = make([]float64, need)
	}
	return p.pairValues(m, scratch), nil
}

// meanRows is the mean sink's per-workload state: row i of pairs holds
// workload i's NumPairs pair values, and envs[i] its environment. Rows
// are indexed by workload, not by the order blocks ran in, so the
// reduction after the pool can sum them in workload order.
type meanRows struct {
	pairs []float64
	envs  []pavf.Env
}

// evalRows is the mean sink's per-block step: the kernel's pair values
// for ws, which start at workload first, are copied lane by lane into
// their workload rows, beside each lane's environment.
func (p *Plan) evalRows(ws []Workload, first int, m *EnvMatrix, scratch []float64, rows *meanRows) error {
	pv, err := p.kernel(ws, m, scratch)
	if err != nil || pv == nil {
		return err
	}
	lanes, np := len(ws), p.NumPairs()
	for w := range ws {
		row := rows.pairs[(first+w)*np : (first+w+1)*np]
		for pi := range row {
			row[pi] = pv[pi*lanes+w]
		}
	}
	copy(rows.envs[first:first+lanes], m.envs)
	return nil
}

// mean reduces the rows of n workloads to the mean per-vertex AVF
// vector and the mean environment. Each pair's values, and each term's,
// are summed in workload order and divided by n; the pair means are
// then broadcast to vertices. Every vertex's AVF is its pair's value,
// so this is, add for add, summing the n per-vertex vectors in workload
// order.
func (p *Plan) mean(rows *meanRows, n int) ([]float64, pavf.Env) {
	np := p.NumPairs()
	acc := make([]float64, np)
	for i := 0; i < n; i++ {
		for pi, x := range rows.pairs[i*np : (i+1)*np] {
			acc[pi] += x
		}
	}
	env := make(pavf.Env, p.Analyzer.Universe().Len())
	for _, e := range rows.envs {
		for t, x := range e {
			env[t] += x
		}
	}
	nf := float64(n)
	for pi := range acc {
		acc[pi] /= nf
	}
	for t := range env {
		env[t] /= nf
	}
	avf := make([]float64, p.NumVerts())
	p.broadcast(acc, [][]float64{avf})
	return avf, env
}
