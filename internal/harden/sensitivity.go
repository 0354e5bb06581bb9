// Term-level sensitivity analysis: ∂chipAVF/∂env[t] for every pAVF
// source term, answering "which measured port, control register, or
// loop boundary does the chip's vulnerability actually ride on?".
//
// On the symbolic form this is nearly free. Every sequential bit's AVF
// is MIN(min(1, Σ fwd terms), min(1, Σ bwd terms)): piecewise linear in
// every term value. Away from the kinks (a set sum crossing 1.0, the
// two MIN sides crossing each other) the derivative of one bit with
// respect to term t is exactly 1 when t belongs to the winning side's
// set and that set is uncapped, else 0. The compiled CSR plan already
// stores each distinct set once and maps vertices to (fwd, bwd) slots,
// so the whole gradient is one pass over the plan: count, per set, the
// sequential bits whose MIN it wins while uncapped, then scatter the
// counts to the set's terms. No finite differencing, no extra sweeps —
// O(vertices + plan terms) for the full gradient over every term at
// once.
//
// The finite-difference path (FDTermDerivs) exists to validate the
// analytical result and as the fallback for callers holding only a
// plan: each probed term becomes two extra lanes (env[t]±h) in an
// EnvMatrix, batched through the blocked EvalBlock kernel exactly like
// workloads.

package harden

import (
	"fmt"
	"math"
	"sort"

	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/pavf"
	"seqavf/internal/sweep"
)

// TermSensitivity is one term's chip-AVF derivative, decorated for
// reporting.
type TermSensitivity struct {
	ID    pavf.TermID `json:"id"`
	Kind  string      `json:"kind"`
	Name  string      `json:"name"`
	Deriv float64     `json:"deriv"`
}

// isSeqBit reports whether vertex v is a sequential bit of a design:
// the chip-AVF denominator's population (core.Result.IsSequentialBit).
func isSeqBit(a *core.Analyzer, v graph.VertexID) bool {
	return a.G.Verts[v].Node.Kind == netlist.KindSeq && a.Role(v) != core.RoleDebug
}

// seqVerts lists the sequential bit vertices of a design.
func seqVerts(a *core.Analyzer) []graph.VertexID {
	var out []graph.VertexID
	for v := 0; v < a.G.NumVerts(); v++ {
		if isSeqBit(a, graph.VertexID(v)) {
			out = append(out, graph.VertexID(v))
		}
	}
	return out
}

// chipAVF is the plain sequential mean of one AVF vector — the same
// quantity as core.Summary.WeightedSeqAVF (the per-FUB weighting cancels
// algebraically), which is all a derivative target needs.
func chipAVF(avf []float64, seq []graph.VertexID) float64 {
	if len(seq) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range seq {
		sum += avf[v]
	}
	return sum / float64(len(seq))
}

// TermDerivs computes the analytical gradient ∂chipAVF/∂env[t] for every
// term in the design's universe, from the compiled plan structure under
// env. At a kink (a set sum at exactly 1.0, or the two MIN sides exactly
// tied) the reported value is the kernel's right-continuation: a capped
// set contributes slope 0, a tie resolves to the forward side, matching
// how pavf.Expr.Eval breaks those ties.
func TermDerivs(p *sweep.Plan, env pavf.Env) ([]float64, error) {
	a := p.Analyzer
	if want := a.Universe().Len(); len(env) != want {
		return nil, fmt.Errorf("harden: env has %d terms but design %q has a universe of %d",
			len(env), a.G.Design.Name, want)
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	raw := p.Raw()
	nSets := p.NumSets()

	// Per-set capped sums, replaying the kernel's arithmetic (ascending
	// IDs, early break at >= 1) so "capped" means exactly what Eval saw.
	value := make([]float64, nSets)
	capped := make([]bool, nSets)
	for s := 0; s < nSets; s++ {
		sum := 0.0
		for _, id := range raw.SetIDs[raw.SetOff[s]:raw.SetOff[s+1]] {
			sum += env[id]
			if sum >= 1 {
				sum = 1
				capped[s] = true
				break
			}
		}
		value[s] = sum
	}

	// Count, per set, the sequential bits whose MIN it wins uncapped.
	wins := make([]int64, nSets)
	seq := 0
	for v := range raw.FwdIdx {
		if !isSeqBit(a, graph.VertexID(v)) {
			continue
		}
		seq++
		fi, bi := raw.FwdIdx[v], raw.BwdIdx[v]
		f, b := 1.0, 1.0
		if fi >= 0 {
			f = value[fi]
		}
		if bi >= 0 {
			b = value[bi]
		}
		// Kernel tie-break: the backward side wins only strictly (b < f).
		if b < f {
			if bi >= 0 && !capped[bi] {
				wins[bi]++
			}
		} else if fi >= 0 && !capped[fi] {
			wins[fi]++
		}
	}

	deriv := make([]float64, len(env))
	if seq == 0 {
		return deriv, nil
	}
	n := float64(seq)
	for s := 0; s < nSets; s++ {
		if wins[s] == 0 {
			continue
		}
		w := float64(wins[s]) / n
		for _, id := range raw.SetIDs[raw.SetOff[s]:raw.SetOff[s+1]] {
			deriv[id] += w
		}
	}
	// Top is pinned to 1.0 by construction; it has no admissible
	// perturbation (Env.Validate requires Top == 1), so its slot reports
	// 0 regardless of membership. Sets containing Top are capped anyway.
	deriv[pavf.Top] = 0
	return deriv, nil
}

// TermSensitivities decorates TermDerivs with term identities, sorted by
// |deriv| descending (ID ascending on ties). Top is omitted.
func TermSensitivities(p *sweep.Plan, env pavf.Env) ([]TermSensitivity, error) {
	deriv, err := TermDerivs(p, env)
	if err != nil {
		return nil, err
	}
	return RankDerivs(p.Analyzer.Universe(), deriv), nil
}

// RankDerivs decorates a dense gradient (e.g. a cached Vector's Deriv)
// with term identities, sorted by |deriv| descending (ID ascending on
// ties). Top is omitted.
func RankDerivs(u *pavf.Universe, deriv []float64) []TermSensitivity {
	out := make([]TermSensitivity, 0, len(deriv)-1)
	for id := pavf.Top + 1; int(id) < len(deriv); id++ {
		t := u.Term(id)
		out = append(out, TermSensitivity{ID: id, Kind: t.Kind.String(), Name: t.Name, Deriv: deriv[id]})
	}
	sort.SliceStable(out, func(i, j int) bool {
		ai, aj := math.Abs(out[i].Deriv), math.Abs(out[j].Deriv)
		if ai != aj {
			return ai > aj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// seqMeanAt is chipAVF of the AVF vector env yields, with the
// sequential bit count, computed from the kernel's one-lane pair values
// over the plan's vertex->pair runs: the same adds in the same (vertex)
// order, without building the per-vertex vector.
func seqMeanAt(p *sweep.Plan, env pavf.Env) (float64, int, error) {
	var m sweep.EnvMatrix
	if err := m.ResetEnvs([]pavf.Env{env}); err != nil {
		return 0, 0, err
	}
	pv, err := p.EvalPairs(&m, make([]float64, p.ScratchLen(1)))
	if err != nil {
		return 0, 0, err
	}
	a := p.Analyzer
	off, pair := p.VertexRuns()
	sum, n := 0.0, 0
	for r, pi := range pair {
		x := pv[pi]
		for v := off[r]; v < off[r+1]; v++ {
			if isSeqBit(a, graph.VertexID(v)) {
				sum += x
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0, nil
	}
	return sum / float64(n), n, nil
}

// FDTermDerivs estimates ∂chipAVF/∂env[t] for the given terms by central
// finite differences batched through the blocked kernel: each probed
// term contributes two lanes (env[t]+h and env[t]-h) to an EnvMatrix,
// evaluated sweep.DefaultBlockSize lanes at a time.
// Terms whose base value leaves no room for a symmetric step (env[t]
// outside [h, 1-h]) — including Top, which is pinned at 1 — report NaN.
func FDTermDerivs(p *sweep.Plan, env pavf.Env, ids []pavf.TermID, h float64) ([]float64, error) {
	a := p.Analyzer
	if want := a.Universe().Len(); len(env) != want {
		return nil, fmt.Errorf("harden: env has %d terms but design %q has a universe of %d",
			len(env), a.G.Design.Name, want)
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if !(h > 0) || h >= 0.5 {
		return nil, fmt.Errorf("harden: fd step %v must be in (0, 0.5)", h)
	}
	const pairsPerBlock = sweep.DefaultBlockSize / 2
	seq := seqVerts(a)
	out := make([]float64, len(ids))

	var m sweep.EnvMatrix
	var scratch []float64
	nv := p.NumVerts()
	var probe []int // indices into ids with an admissible step
	for start := 0; start < len(ids); start += pairsPerBlock {
		end := start + pairsPerBlock
		if end > len(ids) {
			end = len(ids)
		}
		probe = probe[:0]
		for i := start; i < end; i++ {
			id := ids[i]
			if int(id) < 0 || int(id) >= len(env) {
				return nil, fmt.Errorf("harden: fd term %d outside universe of %d", id, len(env))
			}
			if id == pavf.Top || env[id] < h || env[id] > 1-h {
				out[i] = math.NaN()
				continue
			}
			probe = append(probe, i)
		}
		if len(probe) == 0 {
			continue
		}
		envs := make([]pavf.Env, 0, 2*len(probe))
		for _, i := range probe {
			for _, sign := range []float64{1, -1} {
				e := make(pavf.Env, len(env))
				copy(e, env)
				e[ids[i]] += sign * h
				envs = append(envs, e)
			}
		}
		if err := m.ResetEnvs(envs); err != nil {
			return nil, err
		}
		if need := p.ScratchLen(len(envs)); len(scratch) < need {
			scratch = make([]float64, need)
		}
		buf := make([]float64, len(envs)*nv)
		lanes := make([][]float64, len(envs))
		for w := range lanes {
			lanes[w] = buf[w*nv : (w+1)*nv]
		}
		if err := p.EvalBlock(&m, scratch, lanes); err != nil {
			return nil, err
		}
		for k, i := range probe {
			plus := chipAVF(lanes[2*k], seq)
			minus := chipAVF(lanes[2*k+1], seq)
			out[i] = (plus - minus) / (2 * h)
		}
	}
	return out, nil
}
