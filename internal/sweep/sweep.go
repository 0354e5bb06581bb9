package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"seqavf/internal/core"
	"seqavf/internal/obs"
	"seqavf/internal/pavf"
)

// Options configure an Engine. The zero value is usable: all cores, auto
// chunking, an 8-plan cache, no telemetry.
type Options struct {
	// Workers bounds the evaluation goroutines. 0 uses GOMAXPROCS; 1 runs
	// serially. Results are identical either way.
	Workers int
	// CacheSize bounds the compiled-plan LRU (by design fingerprint).
	// 0 means 8.
	CacheSize int
	// Obs receives engine telemetry: compile/eval spans, plan cache
	// and store counters, and workload counters. nil disables
	// instrumentation.
	Obs *obs.Registry
	// Store is an optional second-level plan store behind the in-memory
	// LRU (typically an *artifact.Store): a memory miss consults it
	// before compiling, and fresh compiles are persisted back. Store
	// failures never fail a sweep — they are counted and the engine
	// falls through to a fresh compile.
	Store PlanStore
}

// PlanStore is the second-level plan cache contract (satisfied by
// internal/artifact.Store without an import cycle). GetPlan returns
// (nil, nil) on a clean miss; a returned plan must be bit-identical in
// behavior to Compile(res). The context carries request-scoped trace
// state (the store parents its restore span under it), not
// cancellation: restores are short and run to completion.
type PlanStore interface {
	GetPlan(ctx context.Context, res *core.Result) (*Plan, error)
	PutPlan(res *core.Result, p *Plan) error
}

// Engine evaluates batches of workloads through compiled plans. One Engine
// serves any number of designs concurrently; plans are cached LRU by
// design fingerprint.
type Engine struct {
	opts  Options
	cache *planCache
	// block is the kernel's lane width, DefaultBlockSize outside the
	// package's own tests (which sweep other widths through it).
	block int
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	if opts.CacheSize <= 0 {
		opts.CacheSize = 8
	}
	return &Engine{opts: opts, cache: newPlanCache(opts.CacheSize), block: DefaultBlockSize}
}

// Workload pairs a name with its measured pAVF tables.
type Workload struct {
	Name   string
	Inputs *core.Inputs
}

// Batch is the outcome of one sweep: per-workload outputs (index-aligned
// with the submitted workloads) plus the plan and timing.
type Batch struct {
	Plan *Plan
	// Names and Summaries are index-aligned with the submitted
	// workloads. Summaries[i] == Results[i].Summarize() bit for bit
	// whether or not Results were materialized.
	Names     []string
	Summaries []core.Summary
	// Results holds the materialized per-workload results (SweepContext
	// only; nil on a summary sweep).
	Results []*core.Result
	// Nodes holds per-workload SeqAVFByNode maps (summary sweeps that
	// ask for them only; nil otherwise).
	Nodes []map[string]float64
	// rows holds the mean sink's per-workload rows (MeanContext only).
	rows *meanRows
	// Elapsed covers evaluation only (compile time is cached and reported
	// on the compile span / counters instead).
	Elapsed time.Duration
}

// WorkloadsPerSec returns the batch evaluation throughput.
func (b *Batch) WorkloadsPerSec() float64 {
	if b.Elapsed <= 0 {
		return 0
	}
	return float64(len(b.Names)) / b.Elapsed.Seconds()
}

// Plan returns the compiled plan for res's design: from the in-memory
// LRU on hit, else from the second-level store (decoded plans enter the
// LRU like compiled ones), else by compiling — and a fresh compile is
// persisted back to the store so the next process starts warm.
func (e *Engine) Plan(res *core.Result) (*Plan, error) {
	return e.PlanContext(context.Background(), res)
}

// PlanContext is Plan with request-scoped tracing: the "sweep.plan"
// span nests under ctx's current span (the server's per-request root),
// its "source" attribute records how the plan was obtained (cache /
// store / compile), and cold compiles feed the
// sweep.plan_compile_seconds latency histogram.
func (e *Engine) PlanContext(ctx context.Context, res *core.Result) (*Plan, error) {
	fp := res.Analyzer.Fingerprint()
	sp := e.opts.Obs.StartSpanContext(ctx, "sweep.plan")
	defer sp.End()
	if p := e.cache.get(fp); p != nil {
		e.opts.Obs.Counter("sweep.plan_cache_hits").Inc()
		sp.SetAttr("source", "cache")
		return p, nil
	}
	e.opts.Obs.Counter("sweep.plan_cache_misses").Inc()
	if e.opts.Store != nil {
		p, err := e.opts.Store.GetPlan(obs.ContextWithSpan(ctx, sp), res)
		switch {
		case err != nil:
			// A corrupt or version-skewed artifact must not fail the
			// sweep: count it and recompile (the Put below overwrites
			// the bad entry).
			e.opts.Obs.Counter("sweep.plan_store_errors").Inc()
		case p != nil:
			e.opts.Obs.Counter("sweep.plan_store_hits").Inc()
			sp.SetAttr("source", "store")
			e.cache.put(p)
			return p, nil
		default:
			e.opts.Obs.Counter("sweep.plan_store_misses").Inc()
		}
	}
	return e.compile(sp, res)
}

// CompileContext compiles res's plan into the cache and the store
// without looking it up in either first: for a caller that has just
// missed in the store itself (a cold upload), where a second lookup
// would read the same missing or unreadable entry again.
func (e *Engine) CompileContext(ctx context.Context, res *core.Result) (*Plan, error) {
	sp := e.opts.Obs.StartSpanContext(ctx, "sweep.plan")
	defer sp.End()
	return e.compile(sp, res)
}

// compile is the miss path shared by PlanContext and CompileContext:
// compile under a "compile" child of sp, then cache and persist.
func (e *Engine) compile(sp *obs.Span, res *core.Result) (*Plan, error) {
	csp := sp.Child("compile")
	start := time.Now()
	p, err := Compile(res)
	if err != nil {
		csp.End()
		return nil, err
	}
	e.opts.Obs.FixedHistogram("sweep.plan_compile_seconds", obs.LatencyBuckets).
		Observe(time.Since(start).Seconds())
	st := p.Stats()
	csp.SetAttr("vertices", st.Vertices)
	csp.SetAttr("unique_sets", st.UniqueSets)
	csp.SetAttr("set_refs", st.SetRefs)
	csp.End()
	sp.SetAttr("source", "compile")
	e.opts.Obs.Counter("sweep.plan_compiles").Inc()
	e.cache.put(p)
	if e.opts.Store != nil {
		if err := e.opts.Store.PutPlan(res, p); err != nil {
			e.opts.Obs.Counter("sweep.plan_store_put_errors").Inc()
		}
	}
	return p, nil
}

// Install puts a plan obtained outside the engine — one an artifact
// restore decoded along with its result — in the plan cache, so the
// next lookup for its design is a cache hit.
func (e *Engine) Install(p *Plan) { e.cache.put(p) }

// Evict drops the plan cached for design fingerprint fp, if any: for a
// caller that knows no live design has that fingerprint any more.
func (e *Engine) Evict(fp uint64) { e.cache.remove(fp) }

// CachedPlans reports the number of plans currently cached.
func (e *Engine) CachedPlans() int { return e.cache.len() }

// Sweep evaluates every workload through res's compiled plan. Workloads
// are sharded into chunks claimed by a bounded worker pool; each worker
// runs its chunk through the blocked kernel, reusing one scratch matrix
// across its claims. The first workload error aborts the batch.
func (e *Engine) Sweep(res *core.Result, workloads []Workload) (*Batch, error) {
	return e.SweepContext(context.Background(), res, workloads)
}

// SweepContext is Sweep with cancellation: when ctx is cancelled (an
// abandoned HTTP request, a server drain deadline), every worker stops at
// its next chunk claim instead of burning CPU through the rest of the
// batch, and the batch fails with the context's cause. Workloads already
// evaluated are discarded — a cancelled sweep returns no partial batch.
// The batch carries materialized Results and their Summaries.
//
// No serving path materializes per-workload vectors any more: outside
// tests the only caller is the benchmark module's replay of the daemon,
// and this materializing path goes when that replay does.
func (e *Engine) SweepContext(ctx context.Context, res *core.Result, workloads []Workload) (*Batch, error) {
	return e.sweep(ctx, res, workloads, outVectors)
}

// SweepSummariesContext is the summary-first sweep: the same pool,
// plan, kernel and cancellation as SweepContext, but each block's pair
// values are reduced straight into Batch.Summaries (and, with nodes,
// Batch.Nodes) through the plan's summary layout; no per-vertex AVF
// vector is allocated and Batch.Results stays nil. Every summary and
// node map is bit-identical to Summarize / SeqAVFByNode of the Result
// SweepContext would have produced.
func (e *Engine) SweepSummariesContext(ctx context.Context, res *core.Result, workloads []Workload, nodes bool) (*Batch, error) {
	out := outSummary
	if nodes {
		out = outNodes
	}
	return e.sweep(ctx, res, workloads, out)
}

// MeanContext is the mean sink: the same pool, plan, kernel and
// cancellation as SweepContext, reduced to the workloads' mean. It
// returns the mean per-vertex AVF vector and the mean environment, each
// bit-identical to summing SweepContext's Results' AVF vectors (and
// Envs) in workload order and dividing by the workload count. Each lane
// leaves only a row of pair values and its environment, so the sweep
// holds O(workloads × pairs) values, not O(workloads × vertices); the
// pair means are broadcast to vertices once. It needs at least one
// workload; a cancelled sweep returns an error and no mean.
func (e *Engine) MeanContext(ctx context.Context, res *core.Result, workloads []Workload) ([]float64, pavf.Env, error) {
	if len(workloads) == 0 {
		return nil, nil, fmt.Errorf("sweep: mean of no workloads")
	}
	batch, err := e.sweep(ctx, res, workloads, outMean)
	if err != nil {
		return nil, nil, err
	}
	avf, env := batch.Plan.mean(batch.rows, len(workloads))
	return avf, env, nil
}

// output selects the sink one sweep feeds.
type output int

const (
	outSummary output = iota // Summaries
	outNodes                 // Summaries and per-node maps
	outVectors               // materialized Results and their Summaries
	outMean                  // per-workload pair rows for MeanContext
)

// String is the sweep.eval span's "output" attribute.
func (o output) String() string {
	switch o {
	case outVectors:
		return "vectors"
	case outMean:
		return "mean"
	}
	return "summary"
}

// sweep runs one batch through the worker pool, every block feeding
// the sink out selects.
func (e *Engine) sweep(ctx context.Context, res *core.Result, workloads []Workload, out output) (*Batch, error) {
	plan, err := e.PlanContext(ctx, res)
	if err != nil {
		return nil, err
	}
	n := len(workloads)
	workers := e.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	// About four claims per worker, amortizing the claim overhead while
	// keeping the tail balanced, rounded up to whole blocks: every claim
	// except the batch tail is a multiple of the lane width, so ragged
	// blocks appear at most once per sweep instead of once per claim.
	block := e.block
	chunk := max((n+workers*4-1)/(workers*4), 1)
	chunk = (chunk + block - 1) / block * block

	sp := e.opts.Obs.StartSpanContext(ctx, "sweep.eval")
	sp.SetAttr("workloads", n)
	sp.SetAttr("workers", workers)
	sp.SetAttr("chunk", chunk)
	sp.SetAttr("block", block)
	sp.SetAttr("output", out.String())
	start := time.Now()

	batch := &Batch{Plan: plan, Names: make([]string, n)}
	if out == outMean {
		batch.rows = &meanRows{pairs: make([]float64, n*plan.NumPairs()), envs: make([]pavf.Env, n)}
	} else {
		batch.Summaries = make([]core.Summary, n)
	}
	if out == outVectors {
		batch.Results = make([]*core.Result, n)
	}
	if out == outNodes {
		batch.Nodes = make([]map[string]float64, n)
	}
	for i, w := range workloads {
		batch.Names[i] = w.Name
	}

	done := ctx.Done()
	var next atomic.Int64
	var blocks atomic.Int64
	var firstErr atomic.Value // error
	run := func() {
		// Per-worker scratch, pooled across every claim the worker makes:
		// a (NumSets + pairs) x block matrix plus the worker's own
		// EnvMatrix (its SoA buffer is reused across blocks; the per-lane
		// environments are fresh because Results and mean rows adopt
		// them).
		var m EnvMatrix
		scratch := make([]float64, plan.ScratchLen(block))
		for {
			select {
			case <-done:
				firstErr.CompareAndSwap(nil, fmt.Errorf("sweep: cancelled: %w", context.Cause(ctx)))
				return
			default:
			}
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n || firstErr.Load() != nil {
				return
			}
			hi := min(lo+chunk, n)
			for b := lo; b < hi; b += block {
				be := min(b+block, hi)
				var err error
				if batch.rows != nil {
					err = plan.evalRows(workloads[b:be], b, &m, scratch, batch.rows)
				} else {
					// A nil output slice turns that sink off.
					err = plan.evalBlock(workloads[b:be], &m, scratch,
						sliceOut(batch.Results, b, be), batch.Summaries[b:be], sliceOut(batch.Nodes, b, be))
				}
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				blocks.Add(1)
			}
		}
	}
	if workers == 1 {
		run()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
	}
	batch.Elapsed = time.Since(start)
	sp.SetAttr("elapsed", batch.Elapsed.String())
	sp.End()
	if err, _ := firstErr.Load().(error); err != nil {
		if ctx.Err() != nil {
			e.opts.Obs.Counter("sweep.cancelled").Inc()
		}
		return nil, err
	}
	e.opts.Obs.Counter("sweep.workloads").Add(int64(n))
	e.opts.Obs.Counter("sweep.block_evals").Add(blocks.Load())
	if out != outVectors {
		// Workloads served by a reducing sink (no per-vertex vectors).
		e.opts.Obs.Counter("sweep.workloads_reduced").Add(int64(n))
	}
	return batch, nil
}

// sliceOut returns s[lo:hi], or nil when s is nil (an output the batch does
// not produce).
func sliceOut[T any](s []T, lo, hi int) []T {
	if s == nil {
		return nil
	}
	return s[lo:hi]
}
