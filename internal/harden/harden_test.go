package harden

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/stats"
	"seqavf/internal/sweep"
	"seqavf/internal/tinycore"
	"seqavf/internal/uarch"
	"seqavf/internal/workload"
)

// tinycoreSolved is the canonical small end-to-end source: tinycore
// running the MD5-like kernel, measured on the uarch performance model.
func tinycoreSolved(t testing.TB) (*core.Analyzer, *core.Result, *core.Inputs) {
	t.Helper()
	p := workload.MD5Like(60)
	fd, err := tinycore.FlatDesign(len(p.Code))
	if err != nil {
		t.Fatalf("FlatDesign: %v", err)
	}
	g, err := graph.Build(fd)
	if err != nil {
		t.Fatalf("graph.Build: %v", err)
	}
	a, err := core.NewAnalyzer(g, core.DefaultOptions())
	if err != nil {
		t.Fatalf("NewAnalyzer: %v", err)
	}
	perf, err := uarch.Run(p, uarch.DefaultConfig())
	if err != nil {
		t.Fatalf("uarch.Run: %v", err)
	}
	in, err := tinycore.BindInputs(perf.Report)
	if err != nil {
		t.Fatalf("BindInputs: %v", err)
	}
	res, err := a.Solve(in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return a, res, in
}

// solvedRand builds and solves one generated design under seeded random
// inputs.
func solvedRand(t testing.TB, cfg graphtest.Config, inputSeed uint64) (*core.Analyzer, *core.Result, *core.Inputs) {
	t.Helper()
	d, err := graphtest.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	a, err := core.NewAnalyzer(d.Graph, core.DefaultOptions())
	if err != nil {
		t.Fatalf("NewAnalyzer: %v", err)
	}
	in := randomInputs(a, inputSeed)
	res, err := a.Solve(in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return a, res, in
}

// randomInputs assigns seeded pAVFs to every structure port in sorted
// order, matching the sweep package's property-test idiom.
func randomInputs(a *core.Analyzer, seed uint64) *core.Inputs {
	rng := stats.New(seed)
	in := core.NewInputs()
	reads := a.ReadPortTerms()
	sort.Slice(reads, func(i, j int) bool {
		return reads[i].Struct < reads[j].Struct ||
			(reads[i].Struct == reads[j].Struct && reads[i].Port < reads[j].Port)
	})
	for _, sp := range reads {
		in.ReadPorts[sp] = rng.Float64()
	}
	writes := a.WritePortTerms()
	sort.Slice(writes, func(i, j int) bool {
		return writes[i].Struct < writes[j].Struct ||
			(writes[i].Struct == writes[j].Struct && writes[i].Port < writes[j].Port)
	})
	for _, sp := range writes {
		in.WritePorts[sp] = rng.Float64()
	}
	return in
}

func gainOf(m *Model, p *Protection) float64 {
	g := 0.0
	for _, c := range p.Chosen {
		g += c.Gain
	}
	return g
}

func chosenKeys(p *Protection) []string {
	keys := make([]string, len(p.Chosen))
	for i, c := range p.Chosen {
		keys[i] = c.Key
	}
	sort.Strings(keys)
	return keys
}

// TestNewModelTinycore pins the candidate set's shape: tinycore's eight
// architectural registers, bits summing to the summary's sequential bit
// count, gains summing to the total sequential AVF mass.
func TestNewModelTinycore(t *testing.T) {
	_, res, _ := tinycoreSolved(t)
	m, err := NewModel(res, nil)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	cands := m.Candidates()
	if len(cands) != 8 {
		t.Fatalf("tinycore has 8 sequential registers, model found %d: %+v", len(cands), cands)
	}
	bits, mass := 0, 0.0
	seen := make(map[string]bool)
	for _, c := range cands {
		if !strings.HasPrefix(c.Key, "CORE/") {
			t.Errorf("candidate key %q not under CORE/", c.Key)
		}
		if seen[c.Key] {
			t.Errorf("duplicate candidate %q", c.Key)
		}
		seen[c.Key] = true
		if c.Cost != float64(c.Bits) {
			t.Errorf("%s: default cost %v != bits %d", c.Key, c.Cost, c.Bits)
		}
		bits += c.Bits
		mass += c.Gain
	}
	if !seen["CORE/pc"] || !seen["CORE/halted"] {
		t.Errorf("expected CORE/pc and CORE/halted among candidates: %+v", cands)
	}
	sum := m.Base()
	if bits != sum.SeqBits {
		t.Errorf("candidate bits %d != summary SeqBits %d", bits, sum.SeqBits)
	}
	want := sum.WeightedSeqAVF * float64(sum.SeqBits)
	if math.Abs(mass-want) > 1e-9*math.Max(1, want) {
		t.Errorf("candidate AVF mass %v != chipAVF*N %v", mass, want)
	}
}

func TestNewModelCostErrors(t *testing.T) {
	_, res, _ := tinycoreSolved(t)
	cases := []struct {
		name  string
		costs map[string]float64
	}{
		{"unknown key", map[string]float64{"CORE/nope": 1}},
		{"zero cost", map[string]float64{"CORE/pc": 0}},
		{"negative cost", map[string]float64{"CORE/pc": -3}},
		{"nan cost", map[string]float64{"CORE/pc": math.NaN()}},
		{"inf cost", map[string]float64{"CORE/pc": math.Inf(1)}},
	}
	for _, tc := range cases {
		if _, err := NewModel(res, tc.costs); err == nil {
			t.Errorf("%s: NewModel accepted %v", tc.name, tc.costs)
		}
	}
	if _, err := NewModel(res, map[string]float64{"CORE/pc": 2.5}); err != nil {
		t.Errorf("valid cost table rejected: %v", err)
	}
}

// TestSolversAgreeTinycore is the acceptance criterion: on tinycore the
// greedy and DP protection sets match exhaustive enumeration. Under
// uniform costs density order equals gain order, so every budget point
// has a greedy-optimal answer and all three solvers must land on the
// same achieved gain (and, with distinct gains, the same set).
func TestSolversAgreeTinycore(t *testing.T) {
	_, res, _ := tinycoreSolved(t)
	uniform := make(map[string]float64)
	m0, err := NewModel(res, nil)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	for _, c := range m0.Candidates() {
		uniform[c.Key] = 1
	}
	m, err := NewModel(res, uniform)
	if err != nil {
		t.Fatalf("NewModel(uniform): %v", err)
	}
	for budget := 1.0; budget <= 8; budget++ {
		g, err := m.Optimize(budget, SolverGreedy)
		if err != nil {
			t.Fatalf("greedy(%v): %v", budget, err)
		}
		d, err := m.Optimize(budget, SolverDP)
		if err != nil {
			t.Fatalf("dp(%v): %v", budget, err)
		}
		x, err := m.Optimize(budget, SolverExhaustive)
		if err != nil {
			t.Fatalf("exhaustive(%v): %v", budget, err)
		}
		gg, gd, gx := gainOf(m, g), gainOf(m, d), gainOf(m, x)
		if math.Abs(gd-gx) > 1e-12 {
			t.Errorf("budget %v: dp gain %v != exhaustive gain %v", budget, gd, gx)
		}
		if math.Abs(gg-gx) > 1e-12 {
			t.Errorf("budget %v: greedy gain %v != exhaustive gain %v", budget, gg, gx)
		}
		kg, kd, kx := chosenKeys(g), chosenKeys(d), chosenKeys(x)
		if strings.Join(kg, ",") != strings.Join(kx, ",") {
			t.Errorf("budget %v: greedy chose %v, exhaustive chose %v", budget, kg, kx)
		}
		if strings.Join(kd, ",") != strings.Join(kx, ",") {
			t.Errorf("budget %v: dp chose %v, exhaustive chose %v", budget, kd, kx)
		}
		if len(x.Chosen) != int(budget) {
			t.Errorf("budget %v: expected %d chosen under uniform cost, got %d", budget, int(budget), len(x.Chosen))
		}
	}
}

// TestSolversAgreeDefaultCosts runs the same cross-check under the
// default bit-weighted costs: DP must equal exhaustive exactly (both are
// exact), greedy must stay within its 1/2 guarantee and, at full budget,
// reach the optimum too.
func TestSolversAgreeDefaultCosts(t *testing.T) {
	_, res, _ := tinycoreSolved(t)
	m, err := NewModel(res, nil)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	total := 0.0
	for _, c := range m.Candidates() {
		total += c.Cost
	}
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		budget := math.Round(total * frac)
		d, err := m.Optimize(budget, SolverDP)
		if err != nil {
			t.Fatalf("dp(%v): %v", budget, err)
		}
		x, err := m.Optimize(budget, SolverExhaustive)
		if err != nil {
			t.Fatalf("exhaustive(%v): %v", budget, err)
		}
		g, err := m.Optimize(budget, SolverGreedy)
		if err != nil {
			t.Fatalf("greedy(%v): %v", budget, err)
		}
		gd, gx, gg := gainOf(m, d), gainOf(m, x), gainOf(m, g)
		if math.Abs(gd-gx) > 1e-12 {
			t.Errorf("budget %v: dp gain %v != exhaustive gain %v", budget, gd, gx)
		}
		if gg < gx/2-1e-12 {
			t.Errorf("budget %v: greedy gain %v below half of optimal %v", budget, gg, gx)
		}
		if frac == 1.0 && math.Abs(gg-gx) > 1e-12 {
			t.Errorf("full budget: greedy gain %v != optimal %v", gg, gx)
		}
		if d.TotalCost > budget+1e-9 || x.TotalCost > budget+1e-9 || g.TotalCost > budget+1e-9 {
			t.Errorf("budget %v overspent: dp %v, exhaustive %v, greedy %v",
				budget, d.TotalCost, x.TotalCost, g.TotalCost)
		}
	}
}

// TestResidualBitConsistency is the other acceptance criterion: the
// reported residual chip AVF must be bit-identical to independently
// re-sweeping the design through the compiled plan, zeroing the hardened
// nodes' bits, and summarizing.
func TestResidualBitConsistency(t *testing.T) {
	a, res, in := tinycoreSolved(t)
	m, err := NewModel(res, nil)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	p, err := sweep.Compile(res)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	env, err := a.CheckedEnv(in)
	if err != nil {
		t.Fatalf("CheckedEnv: %v", err)
	}
	plan, err := m.Optimize(40, SolverExhaustive)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if len(plan.Chosen) == 0 {
		t.Fatal("budget 40 chose nothing")
	}
	// The independent path: blocked-kernel re-sweep, zero, Summarize.
	avf, err := evalEnvOnce(p, env)
	if err != nil {
		t.Fatalf("evalEnvOnce: %v", err)
	}
	index, verts := keyWalk(res)
	for _, c := range plan.Chosen {
		ci := index[c.Key]
		for _, v := range verts[ci] {
			avf[v] = 0
		}
	}
	masked := *res
	masked.AVF = avf
	want := masked.Summarize().WeightedSeqAVF
	if plan.ResidualChipAVF != want {
		t.Errorf("residual chip AVF %v not bit-identical to re-sweep+zero+summarize %v (diff %g)",
			plan.ResidualChipAVF, want, plan.ResidualChipAVF-want)
	}
	if plan.ResidualChipAVF > plan.BaseChipAVF {
		t.Errorf("residual %v above base %v", plan.ResidualChipAVF, plan.BaseChipAVF)
	}
	if plan.ReductionFrac <= 0 || plan.ReductionFrac > 1 {
		t.Errorf("reduction fraction %v out of (0, 1]", plan.ReductionFrac)
	}
}

func TestOptimizeValidation(t *testing.T) {
	_, res, _ := tinycoreSolved(t)
	m, err := NewModel(res, nil)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
		if _, err := m.Optimize(bad, SolverGreedy); err == nil {
			t.Errorf("Optimize accepted budget %v", bad)
		}
	}
	if _, err := m.Optimize(10, "anneal"); err == nil {
		t.Error("Optimize accepted unknown solver")
	}
	zero, err := m.Optimize(0, SolverAuto)
	if err != nil {
		t.Fatalf("Optimize(0): %v", err)
	}
	if len(zero.Chosen) != 0 || zero.ResidualChipAVF != zero.BaseChipAVF {
		t.Errorf("zero budget should protect nothing: %+v", zero)
	}
	// Auto prefers the exact DP when the table fits.
	p, err := m.Optimize(40, "")
	if err != nil {
		t.Fatalf("Optimize(auto): %v", err)
	}
	if p.Solver != SolverDP {
		t.Errorf("auto on tinycore picked %q, want dp", p.Solver)
	}
}

// TestSweepMonotone: more budget never hurts.
func TestSweepMonotone(t *testing.T) {
	_, res, _ := tinycoreSolved(t)
	m, err := NewModel(res, nil)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	plans, err := m.Sweep([]float64{10, 40, 80, 200}, SolverDP)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].ResidualChipAVF > plans[i-1].ResidualChipAVF+1e-12 {
			t.Errorf("budget %v residual %v worse than budget %v residual %v",
				plans[i].Budget, plans[i].ResidualChipAVF, plans[i-1].Budget, plans[i-1].ResidualChipAVF)
		}
	}
	last := plans[len(plans)-1]
	if last.ResidualChipAVF != 0 {
		t.Errorf("budget 200 covers all %d bits, residual should be 0, got %v", m.SeqBits(), last.ResidualChipAVF)
	}
}

func TestVectorCodecRoundTrip(t *testing.T) {
	v := &Vector{Fingerprint: 0xdeadbeef, EnvHash: 0x1234, SeqBits: 7, ChipAVF: 0.25,
		Deriv: []float64{0, 0.5, 0.125, 1}}
	got, err := DecodeVector(v.Encode())
	if err != nil {
		t.Fatalf("DecodeVector: %v", err)
	}
	if got.Fingerprint != v.Fingerprint || got.EnvHash != v.EnvHash ||
		got.SeqBits != v.SeqBits || got.ChipAVF != v.ChipAVF {
		t.Errorf("header round-trip mismatch: %+v vs %+v", got, v)
	}
	for i := range v.Deriv {
		if got.Deriv[i] != v.Deriv[i] {
			t.Errorf("deriv[%d] %v != %v", i, got.Deriv[i], v.Deriv[i])
		}
	}
	// Corruption must be detected, not trusted.
	enc := v.Encode()
	enc[len(enc)/2] ^= 0x40
	if _, err := DecodeVector(enc); err == nil {
		t.Error("DecodeVector accepted corrupted bytes")
	}
	if _, err := DecodeVector(enc[:10]); err == nil {
		t.Error("DecodeVector accepted truncated bytes")
	}
}

// memStore is an in-memory SensStore for cache-path tests.
type memStore struct {
	m    map[[2]uint64][]byte
	puts int
	gets int
}

func (s *memStore) GetSens(fp, eh uint64) ([]byte, error) {
	s.gets++
	return s.m[[2]uint64{fp, eh}], nil
}
func (s *memStore) PutSens(fp, eh uint64, data []byte) error {
	if s.m == nil {
		s.m = make(map[[2]uint64][]byte)
	}
	s.puts++
	s.m[[2]uint64{fp, eh}] = append([]byte(nil), data...)
	return nil
}

func TestCachedTermDerivs(t *testing.T) {
	a, res, in := tinycoreSolved(t)
	p, err := sweep.Compile(res)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	env, err := a.CheckedEnv(in)
	if err != nil {
		t.Fatalf("CheckedEnv: %v", err)
	}
	st := &memStore{}
	v1, hit, err := CachedTermDerivs(p, env, st)
	if err != nil {
		t.Fatalf("CachedTermDerivs: %v", err)
	}
	if hit {
		t.Error("first lookup reported a hit on an empty store")
	}
	if st.puts != 1 {
		t.Errorf("expected 1 put, got %d", st.puts)
	}
	v2, hit, err := CachedTermDerivs(p, env, st)
	if err != nil {
		t.Fatalf("CachedTermDerivs(2): %v", err)
	}
	if !hit {
		t.Error("second lookup missed")
	}
	for i := range v1.Deriv {
		if v1.Deriv[i] != v2.Deriv[i] {
			t.Fatalf("cached deriv[%d] %v != computed %v", i, v2.Deriv[i], v1.Deriv[i])
		}
	}
	if v1.Fingerprint != a.Fingerprint() || v1.EnvHash != EnvHash(env) {
		t.Errorf("vector key mismatch: %+v", v1)
	}
	// A corrupt cache entry degrades to a recompute and is overwritten.
	key := [2]uint64{a.Fingerprint(), EnvHash(env)}
	st.m[key] = []byte("garbage")
	_, hit, err = CachedTermDerivs(p, env, st)
	if err != nil || hit {
		t.Errorf("corrupt entry: hit=%v err=%v, want miss+recompute", hit, err)
	}
	if _, err := DecodeVector(st.m[key]); err != nil {
		t.Errorf("corrupt entry not overwritten by recompute: %v", err)
	}
}

// Every single-bit flip of an encoded tinycore sensitivity vector must
// be rejected by DecodeVector, without a panic and without allocating
// more than a clean decode of the same bytes: the CRC covers the whole
// body, so no flipped vector may reach the harden cache as a hit.
func TestVectorBitFlipsRejected(t *testing.T) {
	a, res, in := tinycoreSolved(t)
	p, err := sweep.Compile(res)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	env, err := a.CheckedEnv(in)
	if err != nil {
		t.Fatalf("CheckedEnv: %v", err)
	}
	v, _, err := CachedTermDerivs(p, env, nil)
	if err != nil {
		t.Fatalf("CachedTermDerivs: %v", err)
	}
	clean := v.Encode()
	allocBytes := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if _, err := DecodeVector(clean); err != nil {
		t.Fatalf("clean vector rejected: %v", err)
	}
	budget := allocBytes(func() { DecodeVector(clean) })
	buf := append([]byte(nil), clean...)
	for b := 0; b < len(buf)*8; b++ {
		buf[b/8] ^= 1 << (b % 8)
		var err error
		got := allocBytes(func() { _, err = DecodeVector(buf) })
		if err == nil {
			t.Fatalf("flip of bit %d (byte %d) accepted", b, b/8)
		}
		if got > budget {
			t.Fatalf("flip of bit %d allocated %d bytes, clean decode %d", b, got, budget)
		}
		buf[b/8] ^= 1 << (b % 8)
	}
	t.Logf("%d flips of a %d-term vector rejected", len(buf)*8, len(v.Deriv))
}
