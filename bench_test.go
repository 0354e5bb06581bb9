// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md experiment index), plus the cost comparisons
// that motivate the technique: analytical SART resolution vs RTL-level
// statistical fault injection.
//
//	go test -bench=. -benchmem
package seqavf_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"testing"

	"seqavf/internal/artifact"
	"seqavf/internal/core"
	"seqavf/internal/experiments"
	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/harden"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavf"
	"seqavf/internal/pavfio"
	"seqavf/internal/sfi"
	"seqavf/internal/stats"
	"seqavf/internal/sweep"
	"seqavf/internal/tinycore"
	"seqavf/internal/uarch"
	"seqavf/internal/workload"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.DefaultSetup()
		cfg.SuiteSize = 4
		benchEnv, benchErr = experiments.Setup(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// BenchmarkTable1Fig7 resolves the paper's worked example (Table 1 /
// Figure 7) from scratch: netlist, graph extraction, walks, resolution.
func BenchmarkTable1Fig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8LoopSweep regenerates the Figure 8 loop-boundary sweep
// (nine full solves of the XeonLike design).
func BenchmarkFig8LoopSweep(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(e, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9FullDesign regenerates Figure 9: the FUB-partitioned
// relaxation over the whole design with FUBIO merging per iteration.
func BenchmarkFig9FullDesign(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvergenceTrace regenerates the §6.1 convergence study.
func BenchmarkConvergenceTrace(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Convergence(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Correlation regenerates Figure 10: two workload ACE
// bindings, SART solves, FIT models and simulated beam measurements.
func BenchmarkFig10Correlation(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonolithicSolve times one full SART fixpoint on the XeonLike
// design (the per-workload cost without closed forms).
func BenchmarkMonolithicSolve(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Analyzer.Solve(e.AvgInputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymbolicReeval times the §5.1 payoff: plugging fresh pAVFs
// into the closed-form equations instead of re-walking.
func BenchmarkSymbolicReeval(b *testing.B) {
	e := env(b)
	res, err := e.Analyzer.Solve(e.AvgInputs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := res.Reevaluate(e.AvgInputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSARTTinycore times the complete analytical pipeline on the
// netlist CPU: flatten, graph extraction, analysis, resolution. This is
// the numerator of the paper's speed claim.
func BenchmarkSARTTinycore(b *testing.B) {
	p := workload.MD5Like(60)
	perf, err := uarch.Run(p, uarch.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	inputs, err := tinycore.BindInputs(perf.Report)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd, err := tinycore.FlatDesign(len(p.Code))
		if err != nil {
			b.Fatal(err)
		}
		g, err := graph.Build(fd)
		if err != nil {
			b.Fatal(err)
		}
		a, err := core.NewAnalyzer(g, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Solve(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSFIInjection times brute-force fault injection per injected
// fault — the denominator of the paper's speed claim (§3.1). Each
// injection costs a golden fast-forward plus a propagation window of
// full-netlist simulation.
func BenchmarkSFIInjection(b *testing.B) {
	p := workload.MD5Like(20)
	m, err := tinycore.New(p)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sfi.DefaultConfig()
	cfg.InjectionsPerBit = 1
	cfg.Window = 300
	obs := sfi.Observation{Fub: tinycore.FubName, Valid: "out_valid", Data: "out_data", Halted: "halted_o"}
	b.ResetTimer()
	totalInjections := 0
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := sfi.Run(m.Sim, obs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		totalInjections += res.Injections
	}
	b.StopTimer()
	if totalInjections > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalInjections), "ns/injection")
	}
}

// BenchmarkPerfModelACE times one ACE-instrumented performance-model run
// (the fast side of the paper's hybrid).
func BenchmarkPerfModelACE(b *testing.B) {
	p := workload.Lattice(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uarch.Run(p, uarch.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTLSimCycle times raw netlist simulation (the slow side).
func BenchmarkRTLSimCycle(b *testing.B) {
	m, err := tinycore.New(workload.MD5Like(50))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// BenchmarkGraphBuild times bit-level graph extraction for the XeonLike
// design.
func BenchmarkGraphBuild(b *testing.B) {
	e := env(b)
	fd, err := netlist.Flatten(e.Gen.Design)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Build(fd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnion measures the core set-algebra operation.
func BenchmarkUnion(b *testing.B) {
	u := pavf.NewUniverse()
	ids := make([]pavf.TermID, 32)
	for i := range ids {
		ids[i] = u.Intern(pavf.Term{Kind: pavf.KindReadPort, Name: string(rune('A' + i))})
	}
	x := pavf.NewSet(ids[:16]...)
	y := pavf.NewSet(ids[8:24]...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Union(y)
	}
}

// BenchmarkAblationBitFieldAnalysis contrasts whole-entry vs per-field
// ACE tracking (the §5.1 Bit Field Analysis design choice): the accuracy
// gain is measured by TestBitFieldAblation; this measures the cost.
func BenchmarkAblationBitFieldAnalysis(b *testing.B) {
	p := workload.Lattice(8)
	for _, mode := range []struct {
		name  string
		whole bool
	}{{"fields", false}, {"whole-entry", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := uarch.DefaultConfig()
			cfg.WholeEntryIQ = mode.whole
			for i := 0; i < b.N; i++ {
				if _, err := uarch.Run(p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHardenOptimize times the selective-hardening optimizer
// (internal/harden) on the XeonLike design: one protection plan per
// solver at half the design's total bit cost, plus the analytical
// term-sensitivity gradient over the compiled plan.
func BenchmarkHardenOptimize(b *testing.B) {
	e := env(b)
	res, err := e.Analyzer.Solve(e.AvgInputs)
	if err != nil {
		b.Fatal(err)
	}
	model, err := harden.NewModel(res, nil)
	if err != nil {
		b.Fatal(err)
	}
	total := 0.0
	for _, c := range model.Candidates() {
		total += c.Cost
	}
	budget := total / 2
	for _, solver := range []string{harden.SolverGreedy, harden.SolverDP} {
		b.Run(solver, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := model.Optimize(budget, solver); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("sensitivity", func(b *testing.B) {
		plan, err := sweep.Compile(res)
		if err != nil {
			b.Fatal(err)
		}
		penv, err := e.Analyzer.CheckedEnv(res.Inputs)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := harden.TermDerivs(plan, penv); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProtectionSweep regenerates the §1 protection projection.
func BenchmarkProtectionSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Protection(7, []float64{0, 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvergenceScaling regenerates the §5.2 iteration-law study.
func BenchmarkConvergenceScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ConvergenceScaling([]int{4, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	sweepOnce sync.Once
	sweepAnl  *core.Analyzer
	sweepRes  *core.Result
	sweepWork []sweep.Workload
	sweepErr  error
)

// sweepSetup solves tinycore once and synthesizes 32 workloads as seeded
// perturbations of a measured run — the batch both sweep benchmarks share.
func sweepSetup(b *testing.B) (*core.Analyzer, *core.Result, []sweep.Workload) {
	b.Helper()
	sweepOnce.Do(func() {
		p := workload.MD5Like(40)
		fd, err := tinycore.FlatDesign(len(p.Code))
		if err != nil {
			sweepErr = err
			return
		}
		g, err := graph.Build(fd)
		if err != nil {
			sweepErr = err
			return
		}
		sweepAnl, err = core.NewAnalyzer(g, core.DefaultOptions())
		if err != nil {
			sweepErr = err
			return
		}
		perf, err := uarch.Run(p, uarch.DefaultConfig())
		if err != nil {
			sweepErr = err
			return
		}
		base, err := tinycore.BindInputs(perf.Report)
		if err != nil {
			sweepErr = err
			return
		}
		sweepRes, err = sweepAnl.Solve(base)
		if err != nil {
			sweepErr = err
			return
		}
		for i := 0; i < 32; i++ {
			rng := stats.New(uint64(1000 + i))
			in := core.NewInputs()
			jitter := func(v float64) float64 {
				v += (rng.Float64() - 0.5) * 0.2
				return math.Min(1, math.Max(0, v))
			}
			ports := func(dst, src map[core.StructPort]float64) {
				keys := make([]core.StructPort, 0, len(src))
				for sp := range src {
					keys = append(keys, sp)
				}
				sort.Slice(keys, func(a, b int) bool {
					return keys[a].Struct < keys[b].Struct ||
						(keys[a].Struct == keys[b].Struct && keys[a].Port < keys[b].Port)
				})
				for _, sp := range keys {
					dst[sp] = jitter(src[sp])
				}
			}
			ports(in.ReadPorts, base.ReadPorts)
			ports(in.WritePorts, base.WritePorts)
			sweepWork = append(sweepWork, sweep.Workload{Name: fmt.Sprintf("w%02d", i), Inputs: in})
		}
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepAnl, sweepRes, sweepWork
}

// BenchmarkBatchSweep32 evaluates 32 workloads through the compiled plan
// (internal/sweep): the compile-once / serve-many path of §5.1.
func BenchmarkBatchSweep32(b *testing.B) {
	_, res, ws := sweepSetup(b)
	eng := sweep.New(sweep.Options{})
	if _, err := eng.Plan(res); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Sweep(res, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntervalSweep measures the windows-as-lanes payoff on
// tinycore: a 32-window workload swept as one interval batch through a
// warm engine (every window a lane of one compiled plan) against the
// same 32 windows swept independently, each through a fresh engine that
// must compile the plan itself. The packed sweep reduces each window on
// the summary sink while the independent sweeps materialize full
// Results; the interval property test pins every window's chip AVF and
// node AVFs bit-for-bit against Result.Reevaluate of that window. The
// gap is plan-compile amortization plus the vectors the summary sink
// never builds, expected to approach T× as the window count T grows
// (EXPERIMENTS.md records the measured ratio).
func BenchmarkIntervalSweep(b *testing.B) {
	_, res, work := sweepSetup(b)
	const span = 100
	iw := sweep.IntervalWorkload{Name: "phased"}
	for i, w := range work {
		iw.Windows = append(iw.Windows, sweep.WindowSpan{
			Start: uint64(i * span), End: uint64((i + 1) * span),
		})
		iw.Inputs = append(iw.Inputs, w.Inputs)
	}
	b.Run("Packed32", func(b *testing.B) {
		eng := sweep.New(sweep.Options{})
		if _, err := eng.Plan(res); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.SweepIntervals(res, []sweep.IntervalWorkload{iw}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(work)*b.N)/b.Elapsed().Seconds(), "windows/sec")
	})
	b.Run("Independent32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range work {
				eng := sweep.New(sweep.Options{})
				if _, err := eng.Sweep(res, []sweep.Workload{w}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(work)*b.N)/b.Elapsed().Seconds(), "windows/sec")
	})
}

// xeonWorkloads synthesizes n XeonLike workloads as seeded ±10%
// perturbations of the averaged measured inputs — the batch the blocked,
// traced and summary sweep benchmarks share.
func xeonWorkloads(e *experiments.Env, n int) []sweep.Workload {
	ws := make([]sweep.Workload, n)
	for i := range ws {
		rng := stats.New(uint64(7000 + i))
		in := core.NewInputs()
		jitter := func(v float64) float64 {
			v += (rng.Float64() - 0.5) * 0.2
			return math.Min(1, math.Max(0, v))
		}
		ports := func(dst, src map[core.StructPort]float64) {
			keys := make([]core.StructPort, 0, len(src))
			for sp := range src {
				keys = append(keys, sp)
			}
			sort.Slice(keys, func(a, b int) bool {
				return keys[a].Struct < keys[b].Struct ||
					(keys[a].Struct == keys[b].Struct && keys[a].Port < keys[b].Port)
			})
			for _, sp := range keys {
				dst[sp] = jitter(src[sp])
			}
		}
		ports(in.ReadPorts, e.AvgInputs.ReadPorts)
		ports(in.WritePorts, e.AvgInputs.WritePorts)
		ws[i] = sweep.Workload{Name: fmt.Sprintf("w%02d", i), Inputs: in}
	}
	return ws
}

// BenchmarkSummarySweep contrasts the two ways to score a batch on the
// XeonLike design — 64 workloads, one worker, blocked kernel — when only
// the design summaries are wanted (the default /v1/sweep request):
// Materialize sweeps full Results and calls Summarize on each (the
// pre-summary-first path), Reduce runs the summary sink, which reduces
// the kernel's per-pair values straight into summaries. The summaries
// are bit-identical; run with -benchmem to see the per-vertex vectors
// the reduce path no longer allocates. The GC protocol matches
// BenchmarkTracedSweep.
func BenchmarkSummarySweep(b *testing.B) {
	e := env(b)
	res, err := e.Analyzer.Solve(e.AvgInputs)
	if err != nil {
		b.Fatal(err)
	}
	const n = 64
	ws := xeonWorkloads(e, n)
	for _, bc := range []struct {
		name string
		run  func(eng *sweep.Engine) error
	}{
		{"Materialize", func(eng *sweep.Engine) error {
			batch, err := eng.Sweep(res, ws)
			if err != nil {
				return err
			}
			for _, r := range batch.Results {
				_ = r.Summarize()
			}
			return nil
		}},
		{"Reduce", func(eng *sweep.Engine) error {
			_, err := eng.SweepSummariesContext(context.Background(), res, ws, false)
			return err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng := sweep.New(sweep.Options{Workers: 1})
			if _, err := eng.Plan(res); err != nil {
				b.Fatal(err)
			}
			gcPct := debug.SetGCPercent(-1)
			defer debug.SetGCPercent(gcPct)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				if err := bc.run(eng); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "workloads/sec")
		})
	}
}

// BenchmarkTracedSweep measures the cost of request-scoped tracing on
// the blocked kernel: a 64-workload XeonLike sweep on one worker,
// untraced (no registry) vs traced (a live registry, a per-iteration
// request span the sweep nests under, and a JSONL sink draining to
// io.Discard — the full seqavfd wiring). The instrumentation budget is
// <3% (EXPERIMENTS.md records the measured overhead); tracing that
// costs more than that would have to be sampled instead of always-on.
//
// Each iteration starts from a collected heap (StopTimer + runtime.GC),
// the same quiesced-GC protocol as BenchmarkWarmStartVsSolve, and the
// collector is off inside the timed regions: each 64-workload sweep
// allocates ~6 MB of Result vectors against a smaller live heap, so
// with the collector enabled every iteration would cross the GC trigger
// mid-measurement and mostly time concurrent-mark assists.
func BenchmarkTracedSweep(b *testing.B) {
	e := env(b)
	res, err := e.Analyzer.Solve(e.AvgInputs)
	if err != nil {
		b.Fatal(err)
	}
	const n = 64
	ws := xeonWorkloads(e, n)
	quiesce := func(b *testing.B) {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
	}
	for _, bc := range []struct {
		name   string
		traced bool
	}{
		{"Untraced", false},
		{"Traced", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := sweep.Options{Workers: 1}
			var reg *obs.Registry
			if bc.traced {
				reg = obs.New()
				reg.SetSink(obs.NewJSONLSink(io.Discard))
				opts.Obs = reg
			}
			eng := sweep.New(opts)
			if _, err := eng.Plan(res); err != nil {
				b.Fatal(err)
			}
			gcPct := debug.SetGCPercent(-1)
			defer debug.SetGCPercent(gcPct)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				quiesce(b)
				ctx := context.Background()
				var sp *obs.Span
				if bc.traced {
					sp = reg.StartSpanContext(ctx, "server.request")
					ctx = obs.ContextWithSpan(ctx, sp)
				}
				if _, err := eng.SweepContext(ctx, res, ws); err != nil {
					b.Fatal(err)
				}
				sp.End()
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "workloads/sec")
		})
	}
}

// BenchmarkParse measures pAVF ingest, the parse stage of a 64-table
// /v1/sweep: 64 XeonLike tables (the seeded workloads of
// BenchmarkTracedSweep plus the measured structure AVFs, rendered by
// pavfio.Write) parsed through the io.Reader entry point the CLIs use
// and the text entry point seqavfd uses. Run with -benchmem: the text
// path allocates per table, not per record, and the Reader path adds
// one copy of each table.
func BenchmarkParse(b *testing.B) {
	e := env(b)
	ws := xeonWorkloads(e, 64)
	tables := make([]string, len(ws))
	for i, w := range ws {
		for st, v := range e.AvgInputs.StructAVF {
			w.Inputs.StructAVF[st] = v
		}
		var sb strings.Builder
		if _, err := pavfio.Write(&sb, w.Inputs); err != nil {
			b.Fatal(err)
		}
		tables[i] = sb.String()
	}
	for _, bc := range []struct {
		name  string
		parse func(name, text string) (*core.Inputs, error)
	}{
		{"Reader", func(name, text string) (*core.Inputs, error) {
			return pavfio.Parse(name, strings.NewReader(text))
		}},
		{"Text", pavfio.ParseText},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, text := range tables {
					if _, err := bc.parse(ws[j].Name, text); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(tables)*b.N)/b.Elapsed().Seconds(), "tables/sec")
		})
	}
}

// BenchmarkPerWorkloadSolve32 is the baseline the sweep engine replaces:
// a full symbolic solve (walks and all) per workload.
func BenchmarkPerWorkloadSolve32(b *testing.B) {
	a, _, ws := sweepSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			if _, err := a.Solve(w.Inputs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWarmStartVsSolve contrasts bringing the XeonLike design up
// cold (a full symbolic solve, plan compilation, and the persist-back
// that cliutil.SolveWithStore and the server's engine both perform —
// what a store-backed process does per design on first startup)
// against warm-starting it from the persisted artifact, which restores
// the solved result and the compiled plan in one read: the
// process-restart payoff of internal/artifact. Both paths need the
// analyzer, so its construction is excluded, and both end in the same
// state — result and plan in memory, artifact on disk; the ratio
// isolates what the store actually saves.
//
// Each iteration starts from a collected heap (StopTimer + runtime.GC):
// a real startup runs its one solve-or-decode against a fresh heap, so
// GC assist debt accumulated by the previous benchmark iterations —
// which no production process ever pays — must not leak into either
// side's timing.
func BenchmarkWarmStartVsSolve(b *testing.B) {
	e := env(b)
	st, err := artifact.Open(b.TempDir(), artifact.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := e.Analyzer.Solve(e.AvgInputs)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Put(res); err != nil {
		b.Fatal(err)
	}
	quiesce := func(b *testing.B) {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
	}
	b.Run("ColdSolve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			quiesce(b)
			r, err := e.Analyzer.Solve(e.AvgInputs)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sweep.Compile(r); err != nil {
				b.Fatal(err)
			}
			if err := st.Put(r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WarmStart", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			quiesce(b)
			got, plan, err := st.Get(e.Analyzer)
			if err != nil {
				b.Fatal(err)
			}
			if got == nil || plan == nil {
				b.Fatal("artifact store missed a known fingerprint")
			}
			// Production warm starts (cliutil.SolveWithStore, server
			// LoadNetlist) re-evaluate only when the requested inputs
			// differ from the stored ones; at startup they match.
			if !got.Inputs.Equal(e.AvgInputs) {
				if err := got.Reevaluate(e.AvgInputs); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkIncrementalResolve measures the ECO payoff on the XeonLike
// design: after a single-FUB netlist edit (add-flop), a full
// FUB-partitioned re-solve of the edited design versus
// ResolveIncremental seeded from the pre-edit artifact state. The
// incremental path diffs per-FUB fingerprints and runs Solve's walk over
// only the dirty FUB, its cross-edge neighbours and whatever their moved
// slots reach; every other vertex keeps its closed form from the prior
// — the acceptance target is a >=5x
// speedup for single-FUB edits (EXPERIMENTS.md records the measured
// ratio). PriorState construction is excluded from the incremental
// side: a production ECO loop decodes it once from the artifact store,
// not per re-solve. The quiesced-GC protocol matches
// BenchmarkWarmStartVsSolve.
func BenchmarkIncrementalResolve(b *testing.B) {
	e := env(b)
	base, err := e.Analyzer.SolvePartitioned(e.AvgInputs)
	if err != nil {
		b.Fatal(err)
	}
	prior, err := base.PriorState()
	if err != nil {
		b.Fatal(err)
	}
	fd, err := netlist.Flatten(e.Gen.Design)
	if err != nil {
		b.Fatal(err)
	}
	quiesce := func(b *testing.B) {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
	}
	for _, bc := range []struct {
		name string
		kind graphtest.EditKind
	}{
		{"AddFlop", graphtest.EditAddFlop},
		{"RemoveFlop", graphtest.EditRemoveFlop},
		{"RetimeCell", graphtest.EditRetimeCell},
		{"RewireFubio", graphtest.EditRewireFubio},
	} {
		b.Run(bc.name, func(b *testing.B) {
			_, eg, ed, err := graphtest.ApplyEditFlat(fd, e.Analyzer.G, bc.kind, 41)
			if err != nil {
				b.Fatal(err)
			}
			a2, err := core.NewAnalyzer(eg, e.Analyzer.Opts)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("edit: %s (touched FUBs: %v)", ed.Desc, ed.TouchedFubs)
			b.Run("ColdSolve", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					quiesce(b)
					if _, err := a2.SolvePartitioned(e.AvgInputs); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("Incremental", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					quiesce(b)
					_, st, err := a2.ResolveIncremental(e.AvgInputs, prior)
					if err != nil {
						b.Fatal(err)
					}
					if !st.Converged || st.FubsReused == 0 {
						b.Fatalf("incremental re-solve degenerated: %+v", st)
					}
				}
			})
		})
	}
}
