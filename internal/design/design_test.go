package design

import (
	"strings"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/uarch"
	"seqavf/internal/workload"
)

func generate(t *testing.T, seed uint64) *Generated {
	t.Helper()
	g, err := Generate(DefaultConfig(seed))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g
}

func analyze(t *testing.T, g *Generated, opts core.Options) (*core.Analyzer, *core.Inputs) {
	t.Helper()
	fd, err := netlist.Flatten(g.Design)
	if err != nil {
		t.Fatalf("Flatten: %v", err)
	}
	bg, err := graph.Build(fd)
	if err != nil {
		t.Fatalf("graph.Build: %v", err)
	}
	a, err := core.NewAnalyzer(bg, opts)
	if err != nil {
		t.Fatalf("NewAnalyzer: %v", err)
	}
	res, err := uarch.Run(workload.Lattice(8), uarch.DefaultConfig())
	if err != nil {
		t.Fatalf("uarch.Run: %v", err)
	}
	in, err := g.Inputs(res.Report)
	if err != nil {
		t.Fatalf("Inputs: %v", err)
	}
	return a, in
}

func TestGenerateValidDesign(t *testing.T) {
	g := generate(t, 1)
	if err := g.Design.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(g.Design.Fubs) != DefaultConfig(1).NumFubs {
		t.Fatalf("fubs = %d", len(g.Design.Fubs))
	}
	if len(g.ReadSpecs) == 0 || len(g.WriteSpecs) == 0 {
		t.Fatal("no structure ports generated")
	}
	if len(g.Design.Structures) != len(g.StructArch) {
		t.Fatalf("struct bindings incomplete: %d vs %d",
			len(g.Design.Structures), len(g.StructArch))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := generate(t, 7)
	b := generate(t, 7)
	var bufA, bufB []byte
	{
		var sbA, sbB stringsBuilder
		if err := netlist.Write(&sbA, a.Design); err != nil {
			t.Fatal(err)
		}
		if err := netlist.Write(&sbB, b.Design); err != nil {
			t.Fatal(err)
		}
		bufA, bufB = sbA.b, sbB.b
	}
	if string(bufA) != string(bufB) {
		t.Fatal("generation not deterministic")
	}
	c := generate(t, 8)
	var sbC stringsBuilder
	if err := netlist.Write(&sbC, c.Design); err != nil {
		t.Fatal(err)
	}
	if string(bufA) == string(sbC.b) {
		t.Fatal("different seeds produced identical designs")
	}
}

type stringsBuilder struct{ b []byte }

func (s *stringsBuilder) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

func TestEndToEndAnalysis(t *testing.T) {
	g := generate(t, 3)
	a, in := analyze(t, g, core.DefaultOptions())
	res, err := a.Solve(in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	sum := res.Summarize()
	t.Logf("summary: %+v", sum)
	if sum.SeqBits < 2000 {
		t.Fatalf("design too small: %d sequential bits", sum.SeqBits)
	}
	if sum.WeightedSeqAVF <= 0.01 || sum.WeightedSeqAVF >= 0.9 {
		t.Fatalf("weighted sequential AVF implausible: %v", sum.WeightedSeqAVF)
	}
	if sum.VisitedFraction < 0.9 {
		t.Fatalf("visited fraction = %v, want > 0.9", sum.VisitedFraction)
	}
	if sum.LoopSeqBits == 0 || sum.CtrlBits == 0 {
		t.Fatalf("expected loops and control regs: %+v", sum)
	}
	if sum.LoopSeqFraction > 0.15 {
		t.Fatalf("loop fraction too high: %v", sum.LoopSeqFraction)
	}
}

func TestPartitionedConvergesOnGenerated(t *testing.T) {
	g := generate(t, 5)
	a, in := analyze(t, g, core.DefaultOptions())
	mono, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	part, err := a.SolvePartitioned(in)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Converged {
		t.Fatalf("no convergence in %d iterations", part.Iterations)
	}
	if d := core.MaxAbsDiff(mono, part); d > 1e-9 {
		t.Fatalf("partitioned deviates by %v", d)
	}
	if part.Iterations >= 20 {
		t.Fatalf("needed %d iterations; paper-scale designs converge earlier", part.Iterations)
	}
}

func TestGroundTruthIsMaskedModel(t *testing.T) {
	g := generate(t, 9)
	a, in := analyze(t, g, core.DefaultOptions())
	res, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	truth := g.GroundTruth(res)
	if len(truth) != a.G.NumVerts() {
		t.Fatal("truth size mismatch")
	}
	below := 0
	for v := range truth {
		if truth[v] > res.AVF[v]+1e-12 {
			t.Fatalf("truth above model at vertex %d: %v > %v", v, truth[v], res.AVF[v])
		}
		if truth[v] < res.AVF[v]-1e-12 {
			below++
		}
	}
	if below == 0 {
		t.Fatal("masking had no effect")
	}
	// Deterministic.
	t2 := g.GroundTruth(res)
	for v := range truth {
		if truth[v] != t2[v] {
			t.Fatal("ground truth not deterministic")
		}
	}
}

func TestInputsRejectUnknownArchetype(t *testing.T) {
	g := generate(t, 2)
	res, err := uarch.Run(workload.MD5Like(20), uarch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	delete(res.Report.ReadPorts, "RegFile.rd0")
	// Only fails if some port actually bound to that archetype; scan.
	uses := false
	for _, spec := range g.ReadSpecs {
		if spec.Archetype == "RegFile.rd0" {
			uses = true
		}
	}
	_, err = g.Inputs(res.Report)
	if uses && err == nil {
		t.Fatal("missing archetype accepted")
	}
	if !uses {
		t.Skip("seed did not bind RegFile.rd0")
	}
}

func TestInvalidConfig(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.NumFubs = 1
	if _, err := Generate(cfg); err == nil {
		t.Fatal("NumFubs=1 accepted")
	}
	cfg = DefaultConfig(1)
	cfg.LanesMax = 0
	if _, err := Generate(cfg); err == nil {
		t.Fatal("LanesMax=0 accepted")
	}
	// Above MaxWidth no LFSR cell exists: refused up front, whether or
	// not this seed would have placed one.
	cfg = DefaultConfig(1)
	cfg.NumFubs, cfg.Width = 2, MaxWidth+1
	if _, err := Generate(cfg); err == nil || !strings.Contains(err.Error(), "widest LFSR") {
		t.Fatalf("Width=%d: error %v, want the LFSR bound", cfg.Width, err)
	}
}

// TestInvariantsAcrossSeeds fuzzes the generator: for a population of
// designs, the SART invariants must hold — partitioned equals monolithic,
// AVFs bounded by both one-sided estimates, decomposition sums to AVF.
func TestInvariantsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	perf, err := uarch.Run(workload.MD5Like(40), uarch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(50); seed < 58; seed++ {
		cfg := DefaultConfig(seed)
		cfg.NumFubs = 8 + int(seed%5)
		cfg.ParityFrac = float64(seed%3) * 0.2
		cfg.ECCFrac = float64(seed%2) * 0.1
		g, err := Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fd, err := netlist.Flatten(g.Design)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bg, err := graph.Build(fd)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, err := core.NewAnalyzer(bg, CanonicalOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		in, err := g.Inputs(perf.Report)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mono, err := a.Solve(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		part, err := a.SolvePartitioned(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !part.Converged {
			t.Fatalf("seed %d: no convergence", seed)
		}
		if d := core.MaxAbsDiff(mono, part); d > 1e-9 {
			t.Fatalf("seed %d: partitioned deviates by %v", seed, d)
		}
		for v := 0; v < bg.NumVerts(); v++ {
			id := graph.VertexID(v)
			avf := mono.AVF[v]
			if avf < 0 || avf > 1 {
				t.Fatalf("seed %d: AVF out of range at %s", seed, bg.Name(id))
			}
			x := mono.Exprs[v]
			if avf > x.FwdValue(mono.Env)+1e-12 || avf > x.BwdValue(mono.Env)+1e-12 {
				t.Fatalf("seed %d: AVF exceeds an estimate at %s", seed, bg.Name(id))
			}
			dec := mono.Decompose(id)
			if diff := dec.Total() - avf; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("seed %d: decomposition mismatch at %s", seed, bg.Name(id))
			}
		}
	}
}

func TestGenerateChain(t *testing.T) {
	d, err := GenerateChain(5, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Fubs) != 5 || len(d.Connects) != 4 {
		t.Fatalf("chain shape: %d fubs, %d connects", len(d.Fubs), len(d.Connects))
	}
	if _, err := GenerateChain(1, 2, 8); err == nil {
		t.Fatal("degenerate chain accepted")
	}
	if _, err := GenerateChain(4, 0, 8); err == nil {
		t.Fatal("zero stages accepted")
	}
}

func TestCanonicalOptions(t *testing.T) {
	opts := CanonicalOptions()
	if opts.LoopPAVF != 0.3 || opts.PseudoPAVF != 0.2 {
		t.Fatalf("canonical options drifted: %+v", opts)
	}
}

func TestProtectFractions(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.ParityFrac = 0.5
	cfg.ECCFrac = 0.3
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var par, ecc, none int
	for _, st := range g.Design.Structures {
		switch st.Prot {
		case netlist.ProtParity:
			par++
		case netlist.ProtECC:
			ecc++
		default:
			none++
		}
	}
	if par == 0 || ecc == 0 || none == 0 {
		t.Fatalf("protection mix degenerate: parity=%d ecc=%d none=%d", par, ecc, none)
	}
	if frac := float64(par+ecc) / float64(par+ecc+none); frac < 0.5 || frac > 0.95 {
		t.Fatalf("protected fraction %v far from configured 0.8", frac)
	}
}

// TestGeneratedDesignTextRoundTrip: generated designs survive the EXLIF
// text format byte-for-byte across seeds (serializer determinism + parser
// fidelity at scale).
func TestGeneratedDesignTextRoundTrip(t *testing.T) {
	for seed := uint64(30); seed < 34; seed++ {
		cfg := DefaultConfig(seed)
		cfg.NumFubs = 6
		cfg.ParityFrac = 0.3
		g, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var first stringsBuilder
		if err := netlist.Write(&first, g.Design); err != nil {
			t.Fatal(err)
		}
		d2, err := netlist.Parse(strings.NewReader(string(first.b)))
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		if err := d2.Validate(); err != nil {
			t.Fatalf("seed %d: revalidate: %v", seed, err)
		}
		var second stringsBuilder
		if err := netlist.Write(&second, d2); err != nil {
			t.Fatal(err)
		}
		if string(first.b) != string(second.b) {
			t.Fatalf("seed %d: round trip not stable", seed)
		}
	}
}
