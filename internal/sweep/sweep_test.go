package sweep

import (
	"context"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/obs"
	"seqavf/internal/stats"
	"seqavf/internal/tinycore"
	"seqavf/internal/uarch"
	"seqavf/internal/workload"
)

// solved builds a generated design's analyzer and solves it against
// seeded random inputs.
func solved(t testing.TB, cfg graphtest.Config, inputSeed uint64) (*core.Analyzer, *core.Result, *core.Inputs) {
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

// randomInputs assigns seeded pAVFs to every structure port, iterating
// ports in sorted order so the assignment is deterministic.
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

// TestPlanDedup: compilation must actually share term sets — the whole
// point of the plan — and account for every known equation side.
func TestPlanDedup(t *testing.T) {
	_, res, _ := solved(t, graphtest.Default(11), 1)
	p, err := Compile(res)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	st := p.Stats()
	if st.Vertices != res.Analyzer.G.NumVerts() {
		t.Errorf("plan covers %d vertices, graph has %d", st.Vertices, res.Analyzer.G.NumVerts())
	}
	if st.UniqueSets == 0 || st.SetRefs == 0 {
		t.Fatalf("empty plan: %+v", st)
	}
	if st.UniqueSets >= st.SetRefs {
		t.Errorf("no sharing: %d unique sets for %d refs (propagation should duplicate sets heavily)", st.UniqueSets, st.SetRefs)
	}
	refs := 0
	for v := 0; v < st.Vertices; v++ {
		x := &res.Exprs[v]
		if x.KnownFwd {
			refs++
		}
		if x.KnownBwd {
			refs++
		}
	}
	if refs != st.SetRefs {
		t.Errorf("plan has %d set refs, equations have %d known sides", st.SetRefs, refs)
	}
}

// TestPlanEvalMatchesReevaluate: plan evaluation must be bit-identical to
// Result.Reevaluate under fresh inputs, one lane per block and all lanes
// in one block.
func TestPlanEvalMatchesReevaluate(t *testing.T) {
	a, res, _ := solved(t, graphtest.Default(3), 1)
	p, err := Compile(res)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var ws []Workload
	for seed := uint64(2); seed < 6; seed++ {
		ws = append(ws, Workload{Name: string(rune('a' + seed)), Inputs: randomInputs(a, seed)})
	}
	all := make([]*core.Result, len(ws))
	if err := p.EvalBlockInto(ws, nil, nil, all); err != nil {
		t.Fatalf("EvalBlockInto: %v", err)
	}
	for i, w := range ws {
		one := make([]*core.Result, 1)
		if err := p.EvalBlockInto(ws[i:i+1], nil, nil, one); err != nil {
			t.Fatalf("EvalBlockInto(%s): %v", w.Name, err)
		}
		ref := reevaluated(t, res, w.Inputs)
		bitIdentical(t, "one lane "+w.Name, one[0].AVF, ref.AVF)
		bitIdentical(t, "block lane "+w.Name, all[i].AVF, ref.AVF)
	}
}

// TestPlanEvalRejectsForeignInputs: inputs naming ports the design lacks
// must be refused, not silently defaulted, with an error naming both
// the stray port and the workload.
func TestPlanEvalRejectsForeignInputs(t *testing.T) {
	a, res, in := solved(t, graphtest.Small(5), 1)
	p, err := Compile(res)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	bad := core.NewInputs()
	for sp, v := range in.ReadPorts {
		bad.ReadPorts[sp] = v
	}
	for sp, v := range in.WritePorts {
		bad.WritePorts[sp] = v
	}
	bad.ReadPorts[core.StructPort{Struct: "NoSuchStruct", Port: "rd"}] = 0.5
	ws := []Workload{{Name: "good", Inputs: randomInputs(a, 2)}, {Name: "stray", Inputs: bad}}
	err = p.EvalBlockInto(ws, nil, nil, make([]*core.Result, len(ws)))
	if err == nil {
		t.Fatal("EvalBlockInto accepted inputs for a port the design does not have")
	}
	for _, want := range []string{"NoSuchStruct", `"stray"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error does not name %s: %v", want, err)
		}
	}
}

// TestEngineSweep: batch results must match Result.Reevaluate per
// workload, align with submitted order, and survive both serial and
// parallel modes.
func TestEngineSweep(t *testing.T) {
	a, res, _ := solved(t, graphtest.Default(17), 1)
	var ws []Workload
	for seed := uint64(0); seed < 9; seed++ {
		ws = append(ws, Workload{
			Name:   string(rune('a' + seed)),
			Inputs: randomInputs(a, 100+seed),
		})
	}
	ref := make([][]float64, len(ws))
	for i, w := range ws {
		ref[i] = reevaluated(t, res, w.Inputs).AVF
	}
	for _, workers := range []int{1, 4} {
		eng := New(Options{Workers: workers})
		batch, err := eng.Sweep(res, ws)
		if err != nil {
			t.Fatalf("Sweep(workers=%d): %v", workers, err)
		}
		if len(batch.Results) != len(ws) {
			t.Fatalf("workers=%d: %d results for %d workloads", workers, len(batch.Results), len(ws))
		}
		for i := range ws {
			if batch.Names[i] != ws[i].Name {
				t.Fatalf("workers=%d: result %d named %q, want %q", workers, i, batch.Names[i], ws[i].Name)
			}
			for v := range ref[i] {
				if batch.Results[i].AVF[v] != ref[i][v] {
					t.Fatalf("workers=%d workload %d vertex %d: %v != %v",
						workers, i, v, batch.Results[i].AVF[v], ref[i][v])
				}
			}
		}
	}
}

// TestEngineSweepError: a bad workload must abort the batch with an error
// naming it.
func TestEngineSweepError(t *testing.T) {
	a, res, _ := solved(t, graphtest.Small(5), 1)
	ws := []Workload{
		{Name: "good", Inputs: randomInputs(a, 1)},
		{Name: "bad", Inputs: core.NewInputs()}, // missing every port pAVF
	}
	eng := New(Options{Workers: 1})
	if _, err := eng.Sweep(res, ws); err == nil {
		t.Fatal("Sweep accepted a workload with missing port pAVFs")
	} else if !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("error does not name the failing workload: %v", err)
	}
}

// TestSweepContextCancel: a cancelled context must abort the batch with
// the cancellation cause instead of evaluating to the end, and must count
// the abort on the registry.
func TestSweepContextCancel(t *testing.T) {
	a, res, _ := solved(t, graphtest.Default(17), 1)
	var ws []Workload
	for seed := uint64(0); seed < 64; seed++ {
		ws = append(ws, Workload{
			Name:   string(rune('a' + seed%26)),
			Inputs: randomInputs(a, 200+seed),
		})
	}
	reg := obs.New()
	eng := New(Options{Workers: 4, Obs: reg})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: every worker must bail at its first claim
	if _, err := eng.SweepContext(ctx, res, ws); err == nil {
		t.Fatal("SweepContext completed under a cancelled context")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if got := reg.Counter("sweep.cancelled").Load(); got != 1 {
		t.Fatalf("sweep.cancelled = %d, want 1", got)
	}
	// The same engine still serves uncancelled sweeps afterwards.
	if _, err := eng.Sweep(res, ws[:4]); err != nil {
		t.Fatalf("Sweep after cancelled batch: %v", err)
	}
}

// TestPlanCacheLRU: the engine must reuse plans per design fingerprint
// and evict least-recently-used beyond capacity.
func TestPlanCacheLRU(t *testing.T) {
	reg := obs.New()
	eng := New(Options{CacheSize: 2, Obs: reg})
	results := make([]*core.Result, 3)
	for i := range results {
		_, res, _ := solved(t, graphtest.Small(uint64(20+i)), 1)
		results[i] = res
	}
	hits := func() int64 { return reg.Counter("sweep.plan_cache_hits").Load() }
	misses := func() int64 { return reg.Counter("sweep.plan_cache_misses").Load() }

	p0, err := eng.Plan(results[0])
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if got, _ := eng.Plan(results[0]); got != p0 {
		t.Fatal("second Plan call for the same design did not return the cached plan")
	}
	if hits() != 1 || misses() != 1 {
		t.Fatalf("after warm hit: hits=%d misses=%d, want 1/1", hits(), misses())
	}
	// Fill to capacity with design 1, then insert design 2: design 0 is
	// the LRU victim.
	if _, err := eng.Plan(results[1]); err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if _, err := eng.Plan(results[2]); err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if eng.CachedPlans() != 2 {
		t.Fatalf("cache holds %d plans, capacity is 2", eng.CachedPlans())
	}
	if got, _ := eng.Plan(results[0]); got == p0 {
		t.Fatal("evicted plan returned from cache")
	}
	if misses() != 4 {
		t.Fatalf("re-planning evicted design should miss: misses=%d, want 4", misses())
	}
}

// fakePlanStore is an in-memory PlanStore keyed by design fingerprint
// that fails GetPlan / PutPlan with getErr / putErr when set.
type fakePlanStore struct {
	plans          map[uint64]*Plan
	getErr, putErr error
}

func (f *fakePlanStore) GetPlan(_ context.Context, res *core.Result) (*Plan, error) {
	if f.getErr != nil {
		return nil, f.getErr
	}
	return f.plans[res.Analyzer.Fingerprint()], nil
}

func (f *fakePlanStore) PutPlan(res *core.Result, p *Plan) error {
	if f.putErr != nil {
		return f.putErr
	}
	f.plans[res.Analyzer.Fingerprint()] = p
	return nil
}

// TestPlanStoreOutcomes: every second-level store outcome is counted,
// and none of them — a corrupt entry, a failed write — fails the sweep
// or changes its bits against a store-less engine.
func TestPlanStoreOutcomes(t *testing.T) {
	a, res, _ := solved(t, graphtest.Small(31), 1)
	ws := []Workload{{Name: "a", Inputs: randomInputs(a, 7)}, {Name: "b", Inputs: randomInputs(a, 8)}}
	want, err := New(Options{}).Sweep(res, ws)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := Compile(res)
	if err != nil {
		t.Fatal(err)
	}
	broken := errors.New("injected store fault")
	counters := []string{"sweep.plan_store_hits", "sweep.plan_store_misses", "sweep.plan_store_errors",
		"sweep.plan_compiles", "sweep.plan_store_put_errors"}
	for _, tc := range []struct {
		name  string
		store *fakePlanStore
		want  []int64 // index-aligned with counters
		saved bool    // the compiled plan was written back
	}{
		{"miss", &fakePlanStore{plans: map[uint64]*Plan{}}, []int64{0, 1, 0, 1, 0}, true},
		{"hit", &fakePlanStore{plans: map[uint64]*Plan{a.Fingerprint(): stored}}, []int64{1, 0, 0, 0, 0}, true},
		{"get-error", &fakePlanStore{plans: map[uint64]*Plan{}, getErr: broken}, []int64{0, 0, 1, 1, 0}, true},
		{"put-error", &fakePlanStore{plans: map[uint64]*Plan{}, putErr: broken}, []int64{0, 1, 0, 1, 1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.New()
			batch, err := New(Options{Obs: reg, Store: tc.store}).Sweep(res, ws)
			if err != nil {
				t.Fatalf("store fault failed the sweep: %v", err)
			}
			for i := range ws {
				for v, x := range want.Results[i].AVF {
					if math.Float64bits(batch.Results[i].AVF[v]) != math.Float64bits(x) {
						t.Fatalf("workload %d vertex %d: %v, store-less engine %v", i, v, batch.Results[i].AVF[v], x)
					}
				}
			}
			for i, name := range counters {
				if got := reg.Counter(name).Load(); got != tc.want[i] {
					t.Errorf("%s = %d, want %d", name, got, tc.want[i])
				}
			}
			compiles := uint64(tc.want[3])
			if got := reg.FixedHistogram("sweep.plan_compile_seconds", obs.LatencyBuckets).Count(); got != compiles {
				t.Errorf("sweep.plan_compile_seconds count = %d, want %d", got, compiles)
			}
			if saved := tc.store.plans[a.Fingerprint()] != nil; saved != tc.saved {
				t.Errorf("plan saved to store = %v, want %v", saved, tc.saved)
			}
		})
	}
}

// TestCompileContextSkipsStoreRead: CompileContext never reads the
// store — a failing GetPlan is not even counted — yet the compiled plan
// is cached, written back, and served from the cache afterwards.
func TestCompileContextSkipsStoreRead(t *testing.T) {
	_, res, _ := solved(t, graphtest.Small(31), 1)
	reg := obs.New()
	store := &fakePlanStore{plans: map[uint64]*Plan{}, getErr: errors.New("must not be read")}
	eng := New(Options{Obs: reg, Store: store})
	p, err := eng.CompileContext(context.Background(), res)
	if err != nil {
		t.Fatal(err)
	}
	if store.plans[res.Analyzer.Fingerprint()] != p {
		t.Error("compiled plan was not written to the store")
	}
	if got, err := eng.Plan(res); err != nil || got != p {
		t.Errorf("Plan after CompileContext = (%p, %v), want the cached %p", got, err, p)
	}
	for name, want := range map[string]int64{
		"sweep.plan_compiles": 1, "sweep.plan_store_errors": 0, "sweep.plan_cache_hits": 1, "sweep.plan_cache_misses": 0,
	} {
		if got := reg.Counter(name).Load(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestSweepSpeedup: on tinycore at 32 workloads the compiled batch sweep
// must beat 32 per-workload full solves by >= 5x (the ISSUE acceptance
// bar; in practice it is orders of magnitude).
func TestSweepSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	a, res, ws := tinycoreBatch(t, 32)
	eng := New(Options{Workers: 1}) // serial: measure algorithmic win, not parallelism
	if _, err := eng.Plan(res); err != nil {
		t.Fatalf("Plan: %v", err)
	}

	t0 := time.Now()
	batch, err := eng.Sweep(res, ws)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	sweepTime := time.Since(t0)

	t0 = time.Now()
	fresh := make([]*core.Result, len(ws))
	for i, w := range ws {
		if fresh[i], err = a.Solve(w.Inputs); err != nil {
			t.Fatalf("Solve: %v", err)
		}
	}
	solveTime := time.Since(t0)

	for i := range ws {
		if d := core.MaxAbsDiff(batch.Results[i], fresh[i]); d != 0 || math.IsNaN(d) {
			t.Fatalf("workload %d: sweep deviates from fresh solve by %v", i, d)
		}
	}
	ratio := float64(solveTime) / float64(sweepTime)
	t.Logf("32 workloads on tinycore: solve %v, sweep %v (%.1fx)", solveTime, sweepTime, ratio)
	if ratio < 5 {
		t.Errorf("batch sweep only %.1fx faster than per-workload solve, want >= 5x", ratio)
	}
}

// tinycoreBatch solves tinycore once and synthesizes n workloads as
// seeded perturbations of a measured ACE report's inputs.
func tinycoreBatch(t testing.TB, n int) (*core.Analyzer, *core.Result, []Workload) {
	t.Helper()
	p := workload.MD5Like(40)
	fd, err := tinycore.FlatDesign(len(p.Code))
	if err != nil {
		t.Fatalf("tinycore: %v", err)
	}
	g, err := graph.Build(fd)
	if err != nil {
		t.Fatalf("graph: %v", err)
	}
	a, err := core.NewAnalyzer(g, core.DefaultOptions())
	if err != nil {
		t.Fatalf("analyzer: %v", err)
	}
	perf, err := uarch.Run(p, uarch.DefaultConfig())
	if err != nil {
		t.Fatalf("uarch: %v", err)
	}
	base, err := tinycore.BindInputs(perf.Report)
	if err != nil {
		t.Fatalf("BindInputs: %v", err)
	}
	res, err := a.Solve(base)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	ws := make([]Workload, n)
	for i := range ws {
		ws[i] = Workload{Name: string(rune('A' + i%26)), Inputs: perturb(base, uint64(i))}
	}
	return a, res, ws
}

// perturb jitters every measured pAVF deterministically, clamped to [0,1].
func perturb(base *core.Inputs, seed uint64) *core.Inputs {
	rng := stats.New(0x9e3779b97f4a7c15 ^ seed)
	out := core.NewInputs()
	jitter := func(v float64) float64 {
		v += (rng.Float64() - 0.5) * 0.2
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	perturbPorts := func(dst, src map[core.StructPort]float64) {
		keys := make([]core.StructPort, 0, len(src))
		for sp := range src {
			keys = append(keys, sp)
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i].Struct < keys[j].Struct ||
				(keys[i].Struct == keys[j].Struct && keys[i].Port < keys[j].Port)
		})
		for _, sp := range keys {
			dst[sp] = jitter(src[sp])
		}
	}
	perturbPorts(out.ReadPorts, base.ReadPorts)
	perturbPorts(out.WritePorts, base.WritePorts)
	for s, v := range base.StructAVF {
		out.StructAVF[s] = v
	}
	return out
}
