package harden

import (
	"math"
	"testing"

	"seqavf/internal/graph/graphtest"
	"seqavf/internal/pavf"
	"seqavf/internal/sweep"
)

// TestPropertySensitivityMatchesFD: on 100 seeded random layered DAGs,
// the analytical term gradient matches central finite differences
// batched through the blocked kernel. AVF is piecewise linear in every
// term, so away from kinks the FD quotient is exact up to rounding/(2h);
// terms within the guard band of a kink — a set sum near 1.0, or a
// vertex's two MIN sides nearly tied — are skipped, since there the
// two-sided quotient straddles a slope change and neither value is
// "the" derivative.
func TestPropertySensitivityMatchesFD(t *testing.T) {
	const (
		h     = 1e-4
		guard = 4 * h
		tol   = 1e-6
	)
	checked, skipped, nonzero := 0, 0, 0
	for seed := uint64(0); seed < 100; seed++ {
		a, res, in := solvedRand(t, graphtest.Small(seed), seed^0xfd)
		p, err := sweep.Compile(res)
		if err != nil {
			t.Fatalf("seed %d: Compile: %v", seed, err)
		}
		env, err := a.CheckedEnv(in)
		if err != nil {
			t.Fatalf("seed %d: CheckedEnv: %v", seed, err)
		}
		analytic, err := TermDerivs(p, env)
		if err != nil {
			t.Fatalf("seed %d: TermDerivs: %v", seed, err)
		}

		// Build the kink guard from the same plan structure the
		// analytical pass reads: a term is testable only if no set
		// containing it has a raw (uncapped) sum within the guard band of
		// 1.0, and no vertex referencing it has its two MIN sides within
		// the band of each other.
		sets, fwd, bwd := p.Table()
		nSets := sets.Len()
		rawSum := make([]float64, nSets)
		capVal := make([]float64, nSets)
		for s := 0; s < nSets; s++ {
			sum := 0.0
			for _, id := range sets.SetIDs(int32(s)) {
				sum += env[id]
			}
			rawSum[s] = sum
			capVal[s] = math.Min(1, sum)
		}
		unsafe := make([]bool, len(env))
		markSet := func(s int32) {
			for _, id := range sets.SetIDs(s) {
				unsafe[id] = true
			}
		}
		for s := int32(0); s < int32(nSets); s++ {
			if math.Abs(rawSum[s]-1) <= guard {
				markSet(s)
			}
		}
		// A MIN tie is only a kink if the two sides are *different* sets
		// (min(x, x) = x is kink-free; plan dedup makes shared slots
		// common) and at least one side can move under a ±h perturbation:
		// a side whose raw sum clears 1+guard is pinned flat at 1, so two
		// such sides tying (the both-sides-saturated case) is harmless —
		// slope 0 everywhere.
		movable := func(s int32) bool { return s >= 0 && rawSum[s] < 1+guard }
		for v := 0; v < p.NumVerts(); v++ {
			fi, bi := fwd[v], bwd[v]
			if fi == bi {
				continue
			}
			f, b := 1.0, 1.0
			if fi >= 0 {
				f = capVal[fi]
			}
			if bi >= 0 {
				b = capVal[bi]
			}
			if math.Abs(f-b) <= guard && (movable(fi) || movable(bi)) {
				if fi >= 0 {
					markSet(fi)
				}
				if bi >= 0 {
					markSet(bi)
				}
			}
		}

		ids := make([]pavf.TermID, 0, len(env))
		for id := range env {
			ids = append(ids, pavf.TermID(id))
		}
		fd, err := FDTermDerivs(p, env, ids, h)
		if err != nil {
			t.Fatalf("seed %d: FDTermDerivs: %v", seed, err)
		}
		for i, id := range ids {
			if math.IsNaN(fd[i]) {
				skipped++ // no admissible symmetric step (Top, or value near 0/1)
				continue
			}
			if unsafe[id] {
				skipped++
				continue
			}
			checked++
			if analytic[id] != 0 {
				nonzero++
			}
			if diff := math.Abs(analytic[id] - fd[i]); diff > tol {
				t.Errorf("seed %d term %d (%s): analytic %v, fd %v (diff %g)",
					seed, id, a.Universe().Term(id).Name, analytic[id], fd[i], diff)
			}
		}
	}
	// Most skips are structural, not guard-driven: pseudo-port and
	// control terms sit pinned at env=1 with no admissible symmetric
	// step. The floors below keep the test honest — plenty of probes,
	// including genuinely sloped ones.
	if checked < 300 || nonzero < 50 {
		t.Fatalf("property checked only %d term derivatives (%d nonzero, %d skipped) — guard too aggressive",
			checked, nonzero, skipped)
	}
	t.Logf("checked %d term derivatives (%d nonzero), skipped %d at kinks/pins", checked, nonzero, skipped)
}

// TestPropertySolversMatchExhaustive: on random small designs, the DP
// knapsack always matches brute-force enumeration, and greedy matches it
// under uniform costs (where density order is gain order) while holding
// its 1/2 guarantee under bit-weighted costs.
func TestPropertySolversMatchExhaustive(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		_, res, _ := solvedRand(t, graphtest.Small(seed+500), seed^0x9e37)
		m, err := NewModel(res, nil)
		if err != nil {
			t.Fatalf("seed %d: NewModel: %v", seed, err)
		}
		n := len(m.Candidates())
		if n == 0 || n > maxExhaustive {
			continue
		}
		total := 0.0
		uniform := make(map[string]float64, n)
		for _, c := range m.Candidates() {
			total += c.Cost
			uniform[c.Key] = 1
		}
		for _, frac := range []float64{0.2, 0.5, 0.8} {
			budget := math.Round(total * frac)
			d, err := m.Optimize(budget, SolverDP)
			if err != nil {
				t.Fatalf("seed %d: dp(%v): %v", seed, budget, err)
			}
			x, err := m.Optimize(budget, SolverExhaustive)
			if err != nil {
				t.Fatalf("seed %d: exhaustive(%v): %v", seed, budget, err)
			}
			g, err := m.Optimize(budget, SolverGreedy)
			if err != nil {
				t.Fatalf("seed %d: greedy(%v): %v", seed, budget, err)
			}
			gd, gx, gg := gainOf(m, d), gainOf(m, x), gainOf(m, g)
			if math.Abs(gd-gx) > 1e-12 {
				t.Errorf("seed %d budget %v: dp gain %v != exhaustive %v", seed, budget, gd, gx)
			}
			if gg < gx/2-1e-12 {
				t.Errorf("seed %d budget %v: greedy gain %v below half of optimal %v", seed, budget, gg, gx)
			}
			if d.ResidualChipAVF != m.Residual(chosenIdx(m, d)).WeightedSeqAVF {
				t.Errorf("seed %d budget %v: dp residual not reproducible", seed, budget)
			}
		}
		mu, err := NewModel(res, uniform)
		if err != nil {
			t.Fatalf("seed %d: NewModel(uniform): %v", seed, err)
		}
		for _, budget := range []float64{1, math.Floor(float64(n) / 2), float64(n)} {
			g, err := mu.Optimize(budget, SolverGreedy)
			if err != nil {
				t.Fatalf("seed %d: greedy(%v): %v", seed, budget, err)
			}
			x, err := mu.Optimize(budget, SolverExhaustive)
			if err != nil {
				t.Fatalf("seed %d: exhaustive(%v): %v", seed, budget, err)
			}
			if gg, gx := gainOf(mu, g), gainOf(mu, x); math.Abs(gg-gx) > 1e-12 {
				t.Errorf("seed %d uniform budget %v: greedy gain %v != exhaustive %v", seed, budget, gg, gx)
			}
		}
	}
}

func chosenIdx(m *Model, p *Protection) []int {
	index, _ := keyWalk(m.res)
	out := make([]int, len(p.Chosen))
	for i, c := range p.Chosen {
		out[i] = index[c.Key]
	}
	return out
}
