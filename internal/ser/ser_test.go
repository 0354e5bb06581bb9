package ser

import (
	"math"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/stats"
	"seqavf/internal/uarch"
	"seqavf/internal/workload"
)

// fixture runs the full pipeline once: design -> ACE -> SART -> truth.
func fixture(t *testing.T) (*design.Generated, *core.Result, []float64) {
	t.Helper()
	g, err := design.Generate(design.DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	fd, err := netlist.Flatten(g.Design)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := graph.Build(fd)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(bg, design.CanonicalOptions())
	if err != nil {
		t.Fatal(err)
	}
	perf, err := uarch.Run(workload.Lattice(8), uarch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in, err := g.Inputs(perf.Report)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	return g, res, g.GroundTruth(res)
}

func structBits(g *design.Generated) map[string]int {
	out := make(map[string]int)
	for name, s := range g.Design.Structures {
		out[name] = s.Bits()
	}
	return out
}

func TestFITOrdering(t *testing.T) {
	g, res, truth := fixture(t)
	bits := structBits(g)
	p := DefaultFITParams()
	pre := ProxyFIT(res, bits, p)
	post := ModeledFIT(res, bits, p)
	tru := TrueFIT(res, truth, bits, p)

	// The central ordering of Figure 10: proxy >= modeled >= truth, with
	// identical array contributions.
	if pre.ArrayFIT != post.ArrayFIT || post.ArrayFIT != tru.ArrayFIT {
		t.Fatalf("array FIT should be identical: %v %v %v", pre.ArrayFIT, post.ArrayFIT, tru.ArrayFIT)
	}
	if !(pre.SeqFIT > post.SeqFIT) {
		t.Fatalf("proxy seq FIT (%v) should exceed modeled (%v)", pre.SeqFIT, post.SeqFIT)
	}
	if post.SeqFIT < tru.SeqFIT-1e-9 {
		t.Fatalf("modeled seq FIT (%v) below truth (%v): model not conservative", post.SeqFIT, tru.SeqFIT)
	}
	if tru.SeqFIT <= 0 {
		t.Fatal("zero truth FIT")
	}
	t.Logf("pre=%.1f post=%.1f true=%.1f (AU)", pre.Total(), post.Total(), tru.Total())
}

func TestBeamTestStatistics(t *testing.T) {
	trueFIT := 5000.0
	cfg := BeamConfig{AccelHours: 0.05, Seed: 3}
	m, err := BeamTest(trueFIT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors <= 0 {
		t.Fatalf("no beam errors at lambda=%v", trueFIT*cfg.AccelHours)
	}
	// Expect the measurement within ~5 sigma of truth.
	sigma := math.Sqrt(trueFIT*cfg.AccelHours) / cfg.AccelHours
	if math.Abs(m.FIT.Point-trueFIT) > 5*sigma {
		t.Fatalf("measured %v too far from truth %v", m.FIT.Point, trueFIT)
	}
	if !m.FIT.Contains(m.FIT.Point) || m.FIT.Width() <= 0 {
		t.Fatalf("bad interval %+v", m.FIT)
	}
	if _, err := BeamTest(100, BeamConfig{}); err == nil {
		t.Fatal("zero AccelHours accepted")
	}
}

func TestBeamDeterministicPerSeed(t *testing.T) {
	a, _ := BeamTest(3000, BeamConfig{AccelHours: 0.1, Seed: 9})
	b, _ := BeamTest(3000, BeamConfig{AccelHours: 0.1, Seed: 9})
	if a.Errors != b.Errors {
		t.Fatal("beam test not deterministic")
	}
}

func TestCorrelationMetrics(t *testing.T) {
	c := Correlation{
		Workload: "w",
		Measured: Measurement{FIT: stats.Interval{Point: 100, Lo: 80, Hi: 120}},
		PreFIT:   200,
		PostFIT:  110,
	}
	if math.Abs(c.PreError()-1.0) > 1e-12 {
		t.Fatalf("PreError = %v", c.PreError())
	}
	if math.Abs(c.PostError()-0.1) > 1e-12 {
		t.Fatalf("PostError = %v", c.PostError())
	}
	if math.Abs(c.Improvement()-0.9) > 1e-12 {
		t.Fatalf("Improvement = %v", c.Improvement())
	}
	if !c.WithinMeasurement() {
		t.Fatal("post model should be within measurement")
	}
	c.PostFIT = 150
	if c.WithinMeasurement() {
		t.Fatal("post model outside interval reported as within")
	}
}

func TestSeqAVFReduction(t *testing.T) {
	if got := SeqAVFReduction(0.4, 0.148); math.Abs(got-0.63) > 1e-9 {
		t.Fatalf("reduction = %v", got)
	}
	if SeqAVFReduction(0, 0.1) != 0 {
		t.Fatal("zero proxy should return 0")
	}
}

// TestFullFigure10Shape runs the complete correlation experiment on one
// workload and requires the paper's qualitative outcome.
func TestFullFigure10Shape(t *testing.T) {
	g, res, truth := fixture(t)
	bits := structBits(g)
	p := DefaultFITParams()
	pre := ProxyFIT(res, bits, p).Total()
	post := ModeledFIT(res, bits, p).Total()
	tru := TrueFIT(res, truth, bits, p).Total()

	meas, err := BeamTest(tru, BeamConfig{AccelHours: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := Correlation{Workload: "lattice", Measured: meas, PreFIT: pre, PostFIT: post}
	if c.Improvement() <= 0 {
		t.Fatalf("sequential AVFs did not improve correlation: %+v", c)
	}
	if c.PreError() <= c.PostError() {
		t.Fatalf("pre error %v should exceed post error %v", c.PreError(), c.PostError())
	}
	t.Logf("pre=%.0f post=%.0f measured=%.0f (±%.0f) improvement=%.0f%%",
		pre, post, meas.FIT.Point, meas.FIT.Width()/2, 100*c.Improvement())
}
