package experiments

import (
	"fmt"
	"io"

	"seqavf/internal/graph"
	"seqavf/internal/harden"
	"seqavf/internal/ser"
)

// This study is the hardening decision the paper motivates in §1: "A
// fast and accurate means of determining the most vulnerable sequentials
// is required to determine the most efficient use of low-SER circuit and
// other SER mitigation techniques for these bits." Given per-bit SDC AVFs
// from SART, it selects which sequential nodes to replace with hardened
// cells (SEUT/BISER-style low-SER circuits, refs [3][4][5] — modeled as
// an intrinsic-rate reduction factor) to meet a FIT-reduction target at
// minimum hardened-bit cost. The ranking is internal/harden's.

// HardeningParams describe the low-SER cell technology.
type HardeningParams struct {
	// RateFactor is the hardened cell's intrinsic FIT relative to a
	// standard cell (e.g. 0.1 for a 10x-harder latch; the paper's ref
	// [3] reports SEUT latches in that class).
	RateFactor float64
	// CostPerBit is the relative area/power cost of hardening one bit
	// (used only for reporting).
	CostPerBit float64
}

// hardenedCell is the study's cell: a 10x low-SER latch at 1.5x cell
// cost.
var hardenedCell = HardeningParams{RateFactor: 0.1, CostPerBit: 1.5}

// HardeningPoint is one target level of the mitigation study.
type HardeningPoint struct {
	Target float64
	// GuidedBitsFrac is the fraction of sequential bits the AVF-guided
	// plan hardens to reach the target.
	GuidedBitsFrac float64
	// RandomBitsFrac is the fraction a uniform (AVF-blind) selection
	// would need for the same expected reduction.
	RandomBitsFrac float64
	// Achieved is the plan's actual FIT reduction.
	Achieved float64
	// Nodes are the hardened nodes, most valuable (highest average SDC
	// AVF) first. A node's Gain is its summed SDC AVF.
	Nodes []harden.Candidate
	// HardenedBits of the design's SeqBits sequential bits are replaced.
	HardenedBits, SeqBits int
	// BaseFIT / PlannedFIT are the sequential SDC FIT before and after
	// applying the plan.
	BaseFIT, PlannedFIT float64
}

// HardeningResult is the mitigation-planning study: the paper's §1
// motivation quantified. AVF-guided cell hardening concentrates the
// low-SER cells where they matter; uniform hardening needs
// target/(1-rateFactor) of all bits regardless.
type HardeningResult struct {
	Points []HardeningPoint
	// Params echoes the modeled hardened-cell technology.
	Params HardeningParams
	// FIT echoes the intrinsic FIT rates the plan is priced in.
	FIT ser.FITParams
}

// Hardening sweeps FIT-reduction targets on the XeonLike design using the
// suite-average sequential AVFs.
func Hardening(env *Env, targets []float64) (*HardeningResult, error) {
	if len(targets) == 0 {
		targets = []float64{0.1, 0.2, 0.3, 0.5, 0.7}
	}
	return hardeningStudy(env, hardenedCell, targets)
}

// hardeningStudy plans every target with the given cell. Each plan is
// the shortest prefix of the harden greedy's density-ranked selection —
// whole nodes in descending average SDC AVF, ties by key — that meets
// the target; a target outside (0, 1] or a RateFactor outside [0, 1) is
// an error.
func hardeningStudy(env *Env, hp HardeningParams, targets []float64) (*HardeningResult, error) {
	if hp.RateFactor < 0 || hp.RateFactor >= 1 {
		return nil, fmt.Errorf("experiments: RateFactor %v out of [0,1)", hp.RateFactor)
	}
	for _, target := range targets {
		if target <= 0 || target > 1 {
			return nil, fmt.Errorf("experiments: hardening target %v out of (0,1]", target)
		}
	}
	res, err := env.Analyzer.Solve(env.AvgInputs)
	if err != nil {
		return nil, err
	}
	// The model plans on SDC AVF: each sequential bit's SDC component,
	// every other vertex 0. A budget of every bit buys every node with a
	// nonzero SDC AVF, ranked.
	sdc := *res
	sdc.AVF = make([]float64, len(res.AVF))
	for v := range sdc.AVF {
		if id := graph.VertexID(v); res.IsSequentialBit(id) {
			sdc.AVF[v] = res.SDCAVF(id)
		}
	}
	m, err := harden.NewModel(&sdc, nil)
	if err != nil {
		return nil, err
	}
	ranked, err := m.Optimize(float64(m.SeqBits()), harden.SolverGreedy)
	if err != nil {
		return nil, err
	}
	fit := ser.DefaultFITParams()
	base := 0.0
	for _, c := range m.Candidates() {
		base += c.Gain * fit.IntrinsicSeq
	}

	out := &HardeningResult{Params: hp, FIT: fit}
	for _, target := range targets {
		pt := HardeningPoint{Target: target, SeqBits: m.SeqBits(), BaseFIT: base, PlannedFIT: base}
		goal := base * (1 - target)
		for _, c := range ranked.Chosen {
			if pt.PlannedFIT <= goal {
				break
			}
			pt.PlannedFIT -= c.Gain * fit.IntrinsicSeq * (1 - hp.RateFactor)
			pt.HardenedBits += c.Bits
			pt.Nodes = append(pt.Nodes, c)
		}
		pt.GuidedBitsFrac = float64(pt.HardenedBits) / float64(pt.SeqBits)
		// Uniform selection removes avgAVF x (1-rate) per bit, so the
		// expected bit fraction for the same cut is target/(1-rate).
		pt.RandomBitsFrac = min(target/(1-hp.RateFactor), 1)
		if base > 0 {
			pt.Achieved = (base - pt.PlannedFIT) / base
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// WriteText renders the study.
func (r *HardeningResult) WriteText(w io.Writer) {
	fprintf(w, "AVF-guided hardening (low-SER cells at %.0fx rate, %.1fx cost)\n",
		1/r.Params.RateFactor, r.Params.CostPerBit)
	rule(w)
	fprintf(w, "%-12s %-14s %-18s %-12s\n",
		"FIT target", "bits (guided)", "bits (uniform)", "achieved")
	for _, p := range r.Points {
		fprintf(w, "%-12s %-14s %-18s %-12s\n",
			percent(p.Target), percent(p.GuidedBitsFrac),
			percent(p.RandomBitsFrac), percent(p.Achieved))
	}
	rule(w)
	fprintf(w, "SART's per-node AVFs concentrate hardened cells on the vulnerable\n")
	fprintf(w, "minority — the deployment decision §1 says the technique exists for.\n")
}
