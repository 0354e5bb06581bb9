// Package harden is the selective-hardening optimizer: the mitigation
// planning scenario the paper's closed forms make analytical instead of
// simulation-bound.
//
// A solved design carries one closed-form AVF equation per sequential
// bit, so the effect of protecting (rad-hardening or parity-protecting)
// a flop register is computable without re-simulating anything: the
// register's bits stop contributing failures, and the chip AVF drops by
// exactly the AVF mass those bits carried. That turns "which flops do I
// harden under an area budget?" into a knapsack over per-node
// sensitivities — evaluated from an already-solved core.Result in one
// pass over the AVF vector.
//
// Two levels of sensitivity are computed:
//
//   - Node level (the optimizer's candidates): every sequential node
//     ("fub/node", the unit a hardened cell swap protects) with its AVF
//     mass — the sum of its bits' AVFs, i.e. N_seq · ∂chipAVF/∂(protect
//     node). Node masses are additive across disjoint nodes, so a
//     density-ranked greedy, an exact DP knapsack, and brute-force
//     enumeration all apply and can be cross-checked.
//   - Term level (diagnostics): ∂chipAVF/∂env[t] for every pAVF source
//     term, computed analytically from the compiled CSR plan structure
//     (see sensitivity.go) and validated against central finite
//     differences batched through the blocked EvalBlock kernel.
//
// Residual chip AVF is reported bit-consistently with re-sweeping the
// design and zeroing the hardened nodes' contributions: the masked
// summary replays core.Result.Summarize's exact accumulation over an AVF
// vector whose protected bits are 0.0, and a re-sweep through the
// compiled plan reproduces the unprotected bits bit-identically.
package harden

import (
	"fmt"
	"math"
	"sort"

	"seqavf/internal/core"
	"seqavf/internal/graph"
)

// Candidate is one protectable sequential node.
type Candidate struct {
	// Key identifies the node as "fub/node" — the same key
	// core.Result.SeqAVFByNode reports.
	Key string `json:"key"`
	// Bits counts the node's sequential bits (all are protected together:
	// hardening is a per-register cell swap, not per-bit).
	Bits int `json:"bits"`
	// Gain is the node's AVF mass: the sum of its bits' AVFs, the exact
	// reduction in Σ seq-bit AVF achieved by protecting it.
	Gain float64 `json:"gain"`
	// Cost is the hardening cost (area weight). Defaults to Bits;
	// override per node via the cost table.
	Cost float64 `json:"cost"`
}

// Density is the candidate's gain per unit cost — the greedy ranking key.
func (c Candidate) Density() float64 {
	if c.Cost <= 0 {
		return math.Inf(1)
	}
	return c.Gain / c.Cost
}

// Model holds the budgeted-protection problem for one solved design: the
// candidate set with gains and costs, plus the vertex index needed to
// compute residual summaries.
type Model struct {
	res   *core.Result
	cands []Candidate
	verts [][]graph.VertexID // per candidate, its sequential bit vertices
	index map[string]int     // key → candidate index
	base  core.Summary
}

// NewModel builds the protection model from a solved (or swept) result.
// costs overrides per-node hardening costs by "fub/node" key; a key that
// names no sequential node of the design is an error (a silently ignored
// typo would mis-price the plan), as is a non-positive or non-finite
// cost.
func NewModel(res *core.Result, costs map[string]float64) (*Model, error) {
	a := res.Analyzer
	n := a.G.NumVerts()
	if len(res.AVF) != n {
		return nil, fmt.Errorf("harden: result holds %d AVFs but design %q has %d vertices",
			len(res.AVF), a.G.Design.Name, n)
	}
	m := &Model{res: res, index: make(map[string]int)}
	for v := 0; v < n; v++ {
		if !res.IsSequentialBit(graph.VertexID(v)) {
			continue
		}
		vx := &a.G.Verts[v]
		key := a.G.FubNames[vx.Fub] + "/" + vx.Node.Name
		ci, ok := m.index[key]
		if !ok {
			ci = len(m.cands)
			m.index[key] = ci
			m.cands = append(m.cands, Candidate{Key: key})
			m.verts = append(m.verts, nil)
		}
		m.cands[ci].Bits++
		m.cands[ci].Gain += res.AVF[v]
		m.verts[ci] = append(m.verts[ci], graph.VertexID(v))
	}
	for i := range m.cands {
		m.cands[i].Cost = float64(m.cands[i].Bits)
	}
	for key, c := range costs {
		ci, ok := m.index[key]
		if !ok {
			return nil, fmt.Errorf("harden: cost table names unknown sequential node %q", key)
		}
		if !(c > 0) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("harden: cost for %q is %v, must be finite and positive", key, c)
		}
		m.cands[ci].Cost = c
	}
	m.base = res.Summarize()
	return m, nil
}

// Candidates returns the candidate set in vertex order (FUB-contiguous,
// deterministic). The slice is the model's own; treat it as read-only.
func (m *Model) Candidates() []Candidate { return m.cands }

// Base returns the unprotected design-wide summary.
func (m *Model) Base() core.Summary { return m.base }

// SeqBits returns the number of protectable sequential bits.
func (m *Model) SeqBits() int { return m.base.SeqBits }

// Residual computes the design-wide summary with the chosen candidates'
// bits protected — their AVF contributions zeroed.
//
// The result is bit-consistent with re-sweeping the design under the
// same environment and then zeroing the hardened bits: the compiled plan
// reproduces every unprotected bit's AVF bit-identically (the sweep
// engine's bit-identity property), the protected bits are exactly 0.0 in
// both, and the summary below is core.Result.Summarize itself — the same
// accumulation order over the same values.
func (m *Model) Residual(chosen []int) core.Summary {
	avf := make([]float64, len(m.res.AVF))
	copy(avf, m.res.AVF)
	for _, ci := range chosen {
		for _, v := range m.verts[ci] {
			avf[v] = 0
		}
	}
	masked := *m.res
	masked.AVF = avf
	return masked.Summarize()
}

// Protection is one budget point's plan: the selected nodes ranked by
// gain density, with the residual chip AVF after hardening them.
type Protection struct {
	Budget float64 `json:"budget"`
	// Solver names the algorithm that produced the selection ("greedy",
	// "dp", or "exhaustive").
	Solver string `json:"solver"`
	// Chosen lists the protected nodes, ranked by gain/cost density
	// (descending).
	Chosen    []Candidate `json:"chosen"`
	TotalCost float64     `json:"total_cost"`
	// BaseChipAVF and ResidualChipAVF are the design-wide weighted
	// sequential AVF before and after hardening.
	BaseChipAVF     float64 `json:"base_chip_avf"`
	ResidualChipAVF float64 `json:"residual_chip_avf"`
	// ReductionFrac is 1 - residual/base: the fraction of chip AVF (and,
	// at constant raw FIT per bit, of the sequential FIT rate) removed.
	ReductionFrac float64 `json:"reduction_frac"`
}

// finishProtection assembles the report for a chosen index set.
func (m *Model) finishProtection(budget float64, solver string, chosen []int) *Protection {
	p := &Protection{
		Budget:      budget,
		Solver:      solver,
		Chosen:      make([]Candidate, 0, len(chosen)),
		BaseChipAVF: m.base.WeightedSeqAVF,
	}
	for _, ci := range chosen {
		p.Chosen = append(p.Chosen, m.cands[ci])
		p.TotalCost += m.cands[ci].Cost
	}
	sort.SliceStable(p.Chosen, func(i, j int) bool {
		di, dj := p.Chosen[i].Density(), p.Chosen[j].Density()
		if di != dj {
			return di > dj
		}
		return p.Chosen[i].Key < p.Chosen[j].Key
	})
	p.ResidualChipAVF = m.Residual(chosen).WeightedSeqAVF
	if p.BaseChipAVF > 0 {
		p.ReductionFrac = 1 - p.ResidualChipAVF/p.BaseChipAVF
	}
	return p
}
