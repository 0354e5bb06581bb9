// The budgeted-protection solvers. Node gains are additive (candidates
// partition the sequential bits), so the problem is a 0/1 knapsack:
// maximize removed AVF mass subject to Σ cost ≤ budget.
//
//   - "greedy": one pass over the candidates in descending gain/cost
//     density. Candidates partition the sequential bits, so a node's
//     marginal gain is its cached Gain whatever else is chosen, and the
//     ranking never changes during the pass. The classic
//     best-single-item refinement gives the standard 1/2-approximation
//     guarantee.
//   - "dp": exact dynamic-programming knapsack over integer-quantized
//     costs — the right answer for small designs, refused (or skipped by
//     "auto") when the DP table would not fit.
//   - "exhaustive": brute-force subset enumeration, exponential; the
//     oracle the property tests check the other two against.

package harden

import (
	"fmt"
	"math"
	"sort"
)

// Solver names accepted by Optimize. SolverAuto picks DP when the
// quantized table fits (exact beats approximate when affordable) and
// greedy otherwise.
const (
	SolverAuto       = "auto"
	SolverGreedy     = "greedy"
	SolverDP         = "dp"
	SolverExhaustive = "exhaustive"
)

// ValidSolver reports whether name is an accepted solver ("" = auto).
func ValidSolver(name string) bool {
	switch name {
	case "", SolverAuto, SolverGreedy, SolverDP, SolverExhaustive:
		return true
	}
	return false
}

const (
	// maxDPCells bounds the DP decision table (n · (W+1) booleans):
	// past this the knapsack is no longer "small" and greedy takes over.
	maxDPCells = 64 << 20
	// maxExhaustive bounds brute-force enumeration to 2^22 subsets.
	maxExhaustive = 22
)

// Optimize solves one budget point. budget must be finite and
// non-negative (a zero budget yields an empty plan).
func (m *Model) Optimize(budget float64, solver string) (*Protection, error) {
	if math.IsNaN(budget) || math.IsInf(budget, 0) || budget < 0 {
		return nil, fmt.Errorf("harden: budget %v must be finite and non-negative", budget)
	}
	switch solver {
	case "", SolverAuto:
		if _, ok := m.dpScale(budget); ok {
			solver = SolverDP
		} else {
			solver = SolverGreedy
		}
	case SolverGreedy, SolverDP, SolverExhaustive:
	default:
		return nil, fmt.Errorf("harden: unknown solver %q (want auto, greedy, dp, or exhaustive)", solver)
	}
	var chosen []int
	var err error
	switch solver {
	case SolverGreedy:
		chosen = m.greedy(budget)
	case SolverDP:
		chosen, err = m.knapsackDP(budget)
	case SolverExhaustive:
		chosen, err = m.exhaustive(budget)
	}
	if err != nil {
		return nil, err
	}
	return m.finishProtection(budget, solver, chosen), nil
}

// Sweep solves every budget point with one shared model — the budget
// sweep Run answers for the CLI and the /v1/harden endpoint.
func (m *Model) Sweep(budgets []float64, solver string) ([]*Protection, error) {
	out := make([]*Protection, len(budgets))
	for i, b := range budgets {
		p, err := m.Optimize(b, solver)
		if err != nil {
			return nil, fmt.Errorf("harden: budget %v: %w", b, err)
		}
		out[i] = p
	}
	return out, nil
}

// greedy walks the affordable candidates in descending gain/cost
// density (ties broken by candidate index, i.e. vertex order), taking
// each one that still fits the remaining budget and skipping the rest.
// The best single affordable item is kept as a fallback — the
// refinement that upgrades density-greedy to the standard knapsack
// 1/2-approximation. The ranking does not depend on the budget, so it
// is sorted once per model (densityOrder) and each budget walks it,
// skipping the unaffordable.
func (m *Model) greedy(budget float64) []int {
	bestSingle, bestSingleGain := -1, 0.0
	for i, c := range m.cands {
		if c.Gain > bestSingleGain && c.Cost <= budget {
			bestSingle, bestSingleGain = i, c.Gain
		}
	}
	var chosen []int
	total, remaining := 0.0, budget
	for _, ci := range m.densityOrder() {
		c := m.cands[ci]
		if c.Cost > remaining {
			continue
		}
		chosen = append(chosen, ci)
		total += c.Gain
		remaining -= c.Cost
	}
	if bestSingle >= 0 && bestSingleGain > total {
		return []int{bestSingle}
	}
	return chosen
}

// densityOrder returns the positive-gain candidates in descending
// gain/cost density, ties broken by candidate index, sorting them on
// first use.
func (m *Model) densityOrder() []int {
	if m.order != nil {
		return m.order
	}
	order := make([]int, 0, len(m.cands))
	for i, c := range m.cands {
		if c.Gain > 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := m.cands[order[a]].Density(), m.cands[order[b]].Density()
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	m.order = order
	return order
}

// dpScale finds an integer quantization for the DP knapsack: the
// smallest power-of-ten scale under which every candidate cost and the
// budget are integral (within rounding slop), subject to the DP table
// fitting in maxDPCells. Returns ok=false when no such scale exists —
// irrational-ish costs or a table too big — in which case "auto" uses
// greedy and an explicit "dp" request is refused.
func (m *Model) dpScale(budget float64) (float64, bool) {
	for _, scale := range []float64{1, 10, 100, 1000} {
		ok := true
		if r := budget * scale; math.Abs(r-math.Round(r)) > 1e-6 {
			ok = false
		}
		for _, c := range m.cands {
			if r := c.Cost * scale; math.Abs(r-math.Round(r)) > 1e-6 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		w := int64(math.Round(budget * scale))
		if cells := int64(len(m.cands)) * (w + 1); cells > maxDPCells {
			return 0, false // larger scales only grow the table
		}
		return scale, true
	}
	return 0, false
}

// knapsackDP is the exact 0/1 knapsack over integer-quantized costs,
// with full decision-table reconstruction of the chosen set.
func (m *Model) knapsackDP(budget float64) ([]int, error) {
	scale, ok := m.dpScale(budget)
	if !ok {
		return nil, fmt.Errorf("harden: dp solver needs integer-quantizable costs and a table under %d cells (budget %v, %d candidates); use greedy",
			maxDPCells, budget, len(m.cands))
	}
	w := int(math.Round(budget * scale))
	costs := make([]int, len(m.cands))
	for i, c := range m.cands {
		costs[i] = int(math.Round(c.Cost * scale))
	}
	dp := make([]float64, w+1)
	take := make([]bool, len(m.cands)*(w+1))
	for i, c := range m.cands {
		if c.Gain <= 0 || costs[i] == 0 || costs[i] > w {
			continue
		}
		row := take[i*(w+1) : (i+1)*(w+1)]
		for cap := w; cap >= costs[i]; cap-- {
			if v := dp[cap-costs[i]] + c.Gain; v > dp[cap] {
				dp[cap] = v
				row[cap] = true
			}
		}
	}
	var chosen []int
	cap := w
	for i := len(m.cands) - 1; i >= 0; i-- {
		if take[i*(w+1)+cap] {
			chosen = append(chosen, i)
			cap -= costs[i]
		}
	}
	sort.Ints(chosen)
	return chosen, nil
}

// exhaustive enumerates every subset — the test oracle. Deterministic:
// a subset wins only with strictly greater gain, or equal gain at
// strictly lower cost, so the first optimum in enumeration order is
// kept.
func (m *Model) exhaustive(budget float64) ([]int, error) {
	n := len(m.cands)
	if n > maxExhaustive {
		return nil, fmt.Errorf("harden: exhaustive solver caps at %d candidates, design has %d", maxExhaustive, n)
	}
	bestMask := uint64(0)
	bestGain, bestCost := 0.0, 0.0
	for mask := uint64(0); mask < 1<<n; mask++ {
		gain, cost := 0.0, 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				gain += m.cands[i].Gain
				cost += m.cands[i].Cost
			}
		}
		if cost > budget {
			continue
		}
		if gain > bestGain || (gain == bestGain && cost < bestCost) {
			bestMask, bestGain, bestCost = mask, gain, cost
		}
	}
	var chosen []int
	for i := 0; i < n; i++ {
		if bestMask&(1<<i) != 0 {
			chosen = append(chosen, i)
		}
	}
	return chosen, nil
}
