package experiments

import (
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

// sharedEnv builds one smaller environment for all tests.
func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		cfg := DefaultSetup()
		cfg.SuiteSize = 4
		envVal, envErr = Setup(cfg)
	})
	if envErr != nil {
		t.Fatalf("Setup: %v", envErr)
	}
	return envVal
}

func TestMain(m *testing.M) { os.Exit(m.Run()) }

func TestTable1MatchesPaper(t *testing.T) {
	r, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"q1a": 0.10, "q2a": 0.10, "q1b": 0.02,
		"g1": 0.12, "g2": 0.12, "q3a": 0.12, "q3b": 0.12,
	}
	for _, row := range r.Rows {
		if math.Abs(row.AVF-want[row.Node]) > 1e-9 {
			t.Errorf("%s AVF = %v, want %v", row.Node, row.AVF, want[row.Node])
		}
	}
	var sb strings.Builder
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), "MIN(pAVF_R(S1.rd) + pAVF_R(S2.rd)") {
		t.Errorf("rendered table lacks the join closed form:\n%s", sb.String())
	}
}

func TestFigure8Shape(t *testing.T) {
	env := sharedEnv(t)
	r, err := Figure8(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 9 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].WeightedSeqAVF < r.Points[i-1].WeightedSeqAVF-1e-12 {
			t.Fatalf("sweep not monotone at %v", r.Points[i].LoopPAVF)
		}
	}
	last := r.Points[len(r.Points)-1]
	if last.WeightedSeqAVF > 0.5 {
		t.Fatalf("loop pAVF 1.0 saturated the design: %v", last.WeightedSeqAVF)
	}
	// Loop bits themselves track the injected value exactly.
	for _, p := range r.Points {
		if math.Abs(p.LoopSeqAVFOnly-p.LoopPAVF) > 1e-9 {
			t.Fatalf("loop bits at %v have AVF %v", p.LoopPAVF, p.LoopSeqAVFOnly)
		}
	}
	// The effect is bounded: the full sweep moves the average by less
	// than the loop fraction's ripple allows (paper: "relatively little
	// variation"). The bound is a heuristic over the seed-2027 synthetic
	// design; recalibrated from 0.10 to 0.15 when the unbiased Intn
	// changed the generator's deterministic stream.
	span := last.WeightedSeqAVF - r.Points[0].WeightedSeqAVF
	if span <= 0 || span > 0.15 {
		t.Fatalf("sweep span = %v", span)
	}
	var sb strings.Builder
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), "no saturation") {
		t.Fatal("render missing summary")
	}
}

func TestFigure9Claims(t *testing.T) {
	env := sharedEnv(t)
	r, err := Figure9(env)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Summary
	if s.WeightedSeqAVF < 0.05 || s.WeightedSeqAVF > 0.30 {
		t.Fatalf("weighted sequential AVF = %v, want near the paper's 0.14", s.WeightedSeqAVF)
	}
	if r.Reduction < 0.40 || r.Reduction > 0.85 {
		t.Fatalf("proxy reduction = %v, want in the neighborhood of the paper's 0.63", r.Reduction)
	}
	if s.VisitedFraction < 0.98 {
		t.Fatalf("visited = %v, paper reports >98%%", s.VisitedFraction)
	}
	if s.LoopSeqFraction < 0.003 || s.LoopSeqFraction > 0.06 {
		t.Fatalf("loop fraction = %v, paper reports 2-3%%", s.LoopSeqFraction)
	}
	if !s.Converged {
		t.Fatal("relaxation did not converge")
	}
	if len(r.Stats) != len(env.Gen.Design.Fubs) {
		t.Fatalf("stats rows = %d", len(r.Stats))
	}
}

func TestConvergenceMonotone(t *testing.T) {
	env := sharedEnv(t)
	r, err := Convergence(env)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged || r.Iterations < 2 {
		t.Fatalf("iterations=%d converged=%v", r.Iterations, r.Converged)
	}
	for i := 1; i < len(r.Trace); i++ {
		for f := range r.Trace[i] {
			if r.Trace[i][f] > r.Trace[i-1][f]+1e-12 {
				t.Fatalf("iteration %d FUB %d increased", i, f)
			}
		}
	}
}

func TestFigure10Claims(t *testing.T) {
	env := sharedEnv(t)
	r, err := Figure10(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Workloads) != 2 {
		t.Fatalf("workloads = %d", len(r.Workloads))
	}
	for _, wl := range r.Workloads {
		c := wl.Corr
		if c.PreFIT <= c.PostFIT {
			t.Fatalf("%s: pre (%v) should exceed post (%v)", c.Workload, c.PreFIT, c.PostFIT)
		}
		if c.PreError() < 0.5 {
			t.Fatalf("%s: pre-model error %v, paper reports ~100%%", c.Workload, c.PreError())
		}
		if !c.WithinMeasurement() {
			t.Fatalf("%s: post model outside measurement error", c.Workload)
		}
		if wl.Reduction < 0.4 {
			t.Fatalf("%s: sequential reduction %v below expectations", c.Workload, wl.Reduction)
		}
	}
	if r.MeanImprovement < 0.5 {
		t.Fatalf("mean improvement = %v", r.MeanImprovement)
	}
}

func TestValidateStudy(t *testing.T) {
	r, err := Validate("md5", 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalNodes == 0 {
		t.Fatal("no nodes")
	}
	// The strict conservative setting must bound every SFI measurement.
	if r.ConservativeBound != r.TotalNodes {
		t.Fatalf("loop-pAVF=1.0 bound failed: %d/%d", r.ConservativeBound, r.TotalNodes)
	}
	// SFI must be orders of magnitude more expensive than one SART pass.
	if r.SfiSimCycles < 100*r.GoldenCycles {
		t.Fatalf("SFI cost %d cycles vs golden %d — campaign too small to show the gap",
			r.SfiSimCycles, r.GoldenCycles)
	}
	var sb strings.Builder
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), "SART@1.0") {
		t.Fatal("render missing bound column")
	}
}

func TestSymbolicStudy(t *testing.T) {
	env := sharedEnv(t)
	r, err := Symbolic(env)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxDeviation != 0 {
		t.Fatalf("closed forms deviate: %v", r.MaxDeviation)
	}
	if len(r.Workloads) != len(env.Workloads) {
		t.Fatalf("workloads covered: %d", len(r.Workloads))
	}
}

func TestProxyAVFWellAboveSeq(t *testing.T) {
	env := sharedEnv(t)
	res, err := env.Analyzer.Solve(env.AvgInputs)
	if err != nil {
		t.Fatal(err)
	}
	proxy := env.ProxyAVF(env.AvgInputs)
	seq := res.Summarize().WeightedSeqAVF
	if proxy <= seq {
		t.Fatalf("proxy %v should exceed sequential average %v", proxy, seq)
	}
}

func TestProtectionSweep(t *testing.T) {
	r, err := Protection(7, []float64{0, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if first.DUEFIT != 0 || first.SeqDUE != 0 {
		t.Fatalf("unprotected design has DUE: %+v", first)
	}
	// The paper's §1 projection: absolute SDC falls, sequential share rises.
	if last.SDCFIT >= first.SDCFIT {
		t.Fatalf("SDC did not fall: %v -> %v", first.SDCFIT, last.SDCFIT)
	}
	if last.SeqShare <= first.SeqShare {
		t.Fatalf("sequential share did not rise: %v -> %v", first.SeqShare, last.SeqShare)
	}
	if last.DUEFIT <= 0 {
		t.Fatal("protected design shows no DUE")
	}
}

func TestLoopCharacterization(t *testing.T) {
	r, err := LoopChar("md5", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Nodes) == 0 {
		t.Fatal("no nodes characterized")
	}
	// Solution 2 must beat the static value on this all-loop design.
	if r.MAEChar >= r.MAEStatic {
		t.Fatalf("characterization did not improve accuracy: %v vs %v",
			r.MAEChar, r.MAEStatic)
	}
	var sb strings.Builder
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), "mean abs error") {
		t.Fatal("render incomplete")
	}
}

func TestConvergenceScalingLaw(t *testing.T) {
	r, err := ConvergenceScaling([]int{4, 8, 12})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range r.Points {
		if !p.Converged {
			t.Fatalf("chain %d did not converge", p.Fubs)
		}
		// One partition crossing per iteration: the count tracks the
		// chain length closely.
		if p.Iterations < p.Fubs || p.Iterations > p.Fubs+3 {
			t.Fatalf("chain %d took %d iterations", p.Fubs, p.Iterations)
		}
		if i > 0 && p.Iterations <= r.Points[i-1].Iterations {
			t.Fatal("iterations did not grow with diameter")
		}
	}
}

func TestHardeningStudy(t *testing.T) {
	env := sharedEnv(t)
	r, err := Hardening(env, []float64{0.2, 0.3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Points {
		if p.Achieved < p.Target {
			t.Fatalf("target %v not achieved: %v", p.Target, p.Achieved)
		}
		if p.GuidedBitsFrac >= p.RandomBitsFrac {
			t.Fatalf("guided plan (%v bits) not cheaper than uniform (%v)",
				p.GuidedBitsFrac, p.RandomBitsFrac)
		}
		if p.HardenedBits == 0 || p.HardenedBits >= p.SeqBits {
			t.Fatalf("target %v hardened %d of %d bits", p.Target, p.HardenedBits, p.SeqBits)
		}
		// AVF-guided selection beats uniform selection of the same bit
		// count, whose expected FIT has a closed form.
		uniform := p.BaseFIT * (1 - p.GuidedBitsFrac*(1-r.Params.RateFactor))
		if p.PlannedFIT >= uniform {
			t.Fatalf("guided plan (%v FIT) not better than uniform (%v)", p.PlannedFIT, uniform)
		}
		// Selection is ordered by descending average SDC AVF.
		for i := 1; i < len(p.Nodes); i++ {
			a, b := p.Nodes[i-1], p.Nodes[i]
			if b.Gain/float64(b.Bits) > a.Gain/float64(a.Bits)+1e-12 {
				t.Fatalf("target %v plan not sorted by AVF at %s", p.Target, b.Key)
			}
		}
	}
	// More ambitious targets need more bits.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].GuidedBitsFrac <= r.Points[i-1].GuidedBitsFrac {
			t.Fatal("bit cost did not grow with target")
		}
	}
	// Hardening a high-AVF node saves proportionally more: the guided
	// plan's bits are a small fraction for a 30% cut.
	if frac := r.Points[1].GuidedBitsFrac; frac > 0.35 {
		t.Fatalf("needed %.0f%% of bits for a 30%% reduction — AVF ranking not helping", 100*frac)
	}

	if _, err := Hardening(env, []float64{0}); err == nil {
		t.Fatal("zero target accepted")
	}
	bad := hardenedCell
	bad.RateFactor = 1.0
	if _, err := hardeningStudy(env, bad, []float64{0.5}); err == nil {
		t.Fatal("useless rate factor accepted")
	}
}

func TestVariationStudy(t *testing.T) {
	env := sharedEnv(t)
	r, err := Variation(env, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Workloads) != len(env.Workloads) {
		t.Fatalf("covered %d of %d workloads", len(r.Workloads), len(env.Workloads))
	}
	if len(r.Top) != 5 {
		t.Fatalf("top = %d", len(r.Top))
	}
	for _, n := range r.Top {
		if n.Min > n.Mean || n.Max < n.Mean {
			t.Fatalf("node stats inconsistent: %+v", n)
		}
		if n.Std < 0 {
			t.Fatalf("negative std: %+v", n)
		}
	}
	if r.StableFrac < 0 || r.StableFrac > 1 {
		t.Fatalf("stable frac = %v", r.StableFrac)
	}
	// The named kernels must differ in design-average AVF (workload
	// dependence flows end to end).
	if r.PerWorkloadAvg[0] == r.PerWorkloadAvg[1] {
		t.Fatal("lattice and md5 produced identical averages")
	}
}

func TestExhaustiveStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive campaign skipped in -short")
	}
	r, err := Exhaustive([]int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.SolutionSpace < 10000 {
		t.Fatalf("solution space suspiciously small: %d", r.SolutionSpace)
	}
	if len(r.MAE) != 2 {
		t.Fatalf("MAE entries = %d", len(r.MAE))
	}
	// More samples, less error.
	if r.MAE[1] >= r.MAE[0] {
		t.Fatalf("MAE did not shrink with budget: %v", r.MAE)
	}
	// Coverage is high (95% CIs over 8 nodes: allow one miss).
	if r.Coverage[1] < 0.85 {
		t.Fatalf("CI coverage = %v", r.Coverage[1])
	}
}

// TestRenderersProduceOutput smoke-tests every WriteText renderer so the
// report paths stay exercised.
func TestRenderersProduceOutput(t *testing.T) {
	env := sharedEnv(t)
	check := func(name string, render func(io.Writer)) {
		var sb strings.Builder
		render(&sb)
		if len(sb.String()) < 40 {
			t.Errorf("%s rendered only %d bytes", name, len(sb.String()))
		}
	}
	if r, err := Figure9(env); err == nil {
		check("fig9", func(w io.Writer) { r.WriteText(w) })
	} else {
		t.Fatal(err)
	}
	if r, err := Convergence(env); err == nil {
		check("convergence", func(w io.Writer) { r.WriteText(w) })
	} else {
		t.Fatal(err)
	}
	if r, err := Figure10(env); err == nil {
		check("fig10", func(w io.Writer) { r.WriteText(w) })
	} else {
		t.Fatal(err)
	}
	if r, err := Symbolic(env); err == nil {
		check("symbolic", func(w io.Writer) { r.WriteText(w) })
	} else {
		t.Fatal(err)
	}
	if r, err := Variation(env, 3); err == nil {
		check("variation", func(w io.Writer) { r.WriteText(w) })
	} else {
		t.Fatal(err)
	}
	if r, err := Hardening(env, []float64{0.2}); err == nil {
		check("hardening", func(w io.Writer) { r.WriteText(w) })
	} else {
		t.Fatal(err)
	}
	if r, err := ConvergenceScaling([]int{3}); err == nil {
		check("scaling", func(w io.Writer) { r.WriteText(w) })
	} else {
		t.Fatal(err)
	}
	if r, err := Protection(3, []float64{0, 0.4}); err == nil {
		check("protection", func(w io.Writer) { r.WriteText(w) })
	} else {
		t.Fatal(err)
	}
}
