// Package server implements the seqavfd HTTP service: the request/response
// form of the paper's §5.1 equation-reuse flow. Designs are solved
// symbolically once (at startup or on upload) and their closed forms are
// compiled into deduplicated evaluation plans; each sweep request then
// re-evaluates the cached plan of one design against the request's
// workload pAVF tables — no walks, no RTL, just environment rebuilds —
// which is what makes a long-lived scoring service viable at all.
//
// The service is production-shaped rather than a demo handler:
//
//   - a bounded concurrency limiter applies backpressure: when every slot
//     is busy, requests fail fast with 429 and a Retry-After hint instead
//     of queueing without bound;
//   - every sweep runs under a per-request context deadline, and the
//     cancellation is threaded into the sweep engine's worker pool, so an
//     abandoned request stops burning CPU mid-batch;
//   - request bodies are size-capped before they are parsed;
//   - Abort cancels in-flight sweeps when a graceful drain overruns its
//     deadline;
//   - /healthz, /metrics (Prometheus text exposition), /metrics.json
//     (the obs registry snapshot), /debug/requests (the flight
//     recorder), and /debug/pprof make the process observable in place;
//   - every request runs under a trace: an incoming W3C traceparent
//     header is honored (the response echoes the assigned traceparent),
//     and the request's span tree — ingest, plan/artifact, kernel —
//     feeds the flight recorder and, past Config.SlowRequest, the
//     structured slow log.
package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"seqavf/internal/artifact"
	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/sweep"
)

// Config parameterizes a Server. The zero value is usable: GOMAXPROCS
// concurrent sweeps, 30s request timeout, 8MB bodies, 1s Retry-After.
type Config struct {
	// Sweep configures the shared evaluation engine (workers per batch,
	// chunking, plan-cache capacity). Its Obs field is overridden by Obs
	// below so engine and server report into one registry.
	Sweep sweep.Options
	// Obs receives service telemetry: request/error/backpressure counters,
	// a sweep latency histogram, in-flight and design-count gauges, plus
	// everything the sweep engine and solver record. nil disables
	// instrumentation (the /metrics endpoint then serves an empty
	// snapshot).
	Obs *obs.Registry
	// MaxConcurrent bounds concurrently evaluated requests (sweeps and
	// design uploads), and so the body and response buffers kept for
	// reuse (bufList). 0 uses GOMAXPROCS.
	MaxConcurrent int
	// RequestTimeout caps one sweep evaluation. 0 means 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies. 0 means 8MB.
	MaxBodyBytes int64
	// RetryAfter is the backoff hint attached to 429 responses. 0 means 1s.
	RetryAfter time.Duration
	// Artifacts, when non-nil, persists solved designs and compiled plans
	// across process restarts: LoadNetlist warm-starts from a stored
	// artifact on a fingerprint match instead of solving, solved uploads
	// are written back, and the sweep engine consults the store behind
	// its in-memory plan cache.
	Artifacts *artifact.Store
	// FlightRecorderSize bounds the /debug/requests ring: the last K
	// request records (trace ID, design, per-stage durations, plan
	// disposition, outcome) kept for after-the-fact latency forensics.
	// 0 means 128.
	FlightRecorderSize int
	// SlowRequest, when > 0, promotes any request slower than the
	// threshold to the slow log: its full span tree is written as one
	// JSON line to SlowLog, so "why was that sweep slow?" is answerable
	// without having traced every request externally.
	SlowRequest time.Duration
	// SlowLog receives slow-request span trees (one JSON object per
	// line). nil uses os.Stderr.
	SlowLog io.Writer
}

// Design is one solved design registered with the server.
type Design struct {
	Name     string
	Result   *core.Result
	Plan     sweep.Stats
	Vertices int
	SeqBits  int

	// from is the ingest the design was analyzed from, which an edit
	// of the design reuses; zero for a design registered from a bare
	// result (AddResult). Only the live version holds it: superseded
	// versions kept by the plan cache do not keep their netlist text.
	from ingest
}

// ingest is one analyzed netlist: the parsed text and the analyzer
// built from it, whose graph holds the flat design. Both are read-only.
type ingest struct {
	src *netlist.Source
	a   *core.Analyzer
}

// info is the design's public description.
func (d *Design) info() DesignInfo {
	return DesignInfo{Name: d.Name, Vertices: d.Vertices, SeqBits: d.SeqBits, Plan: d.Plan}
}

// fingerprint is the design's analyzer fingerprint as flight records show it.
func (d *Design) fingerprint() string {
	return fmt.Sprintf("%016x", d.Result.Analyzer.Fingerprint())
}

// Server serves workload sweeps over solved designs. Create with New,
// register designs with AddResult or LoadNetlist, and mount Handler on an
// http.Server.
type Server struct {
	cfg    Config
	eng    *sweep.Engine
	reg    *obs.Registry
	sem    chan struct{}
	semMu  sync.Mutex // orders server.in_flight updates with the slot count they read
	start  time.Time
	flight *obs.FlightRecorder
	slowMu sync.Mutex // serializes SlowLog writes

	bodyBufs bufList[*bytes.Buffer] // raw request bodies (decodeRequest)
	respBufs bufList[[]byte]        // encoded responses (writeJSON)

	mu      sync.RWMutex
	designs map[string]*Design

	stopOnce sync.Once
	stop     chan struct{} // closed by Abort: cancels in-flight sweeps

	// onSlotAcquired is a test hook invoked while holding a concurrency
	// slot, before the engine runs; it lets tests pin requests in flight
	// deterministically.
	onSlotAcquired func()
}

// New returns a Server with no designs registered.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.SlowLog == nil {
		cfg.SlowLog = os.Stderr
	}
	cfg.Sweep.Obs = cfg.Obs
	if cfg.Artifacts != nil {
		// Guarded: assigning a nil *artifact.Store unconditionally would
		// make Sweep.Store a non-nil interface wrapping nil.
		cfg.Sweep.Store = cfg.Artifacts
	}
	// Pre-register the latency histograms (request, plan compile,
	// artifact restore, harden optimize) so /metrics exposes each family
	// — with identical fixed bucket layouts across replicas — from the
	// first scrape, not the first request. The kernel is timed by the
	// sweep.eval span, not a histogram.
	cfg.Obs.FixedHistogram("server.request_seconds", obs.LatencyBuckets)
	cfg.Obs.FixedHistogram("sweep.plan_compile_seconds", obs.LatencyBuckets)
	cfg.Obs.FixedHistogram("artifact.restore_seconds", obs.LatencyBuckets)
	cfg.Obs.FixedHistogram("harden.optimize_seconds", obs.LatencyBuckets)
	return &Server{
		cfg:      cfg,
		eng:      sweep.New(cfg.Sweep),
		reg:      cfg.Obs,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		bodyBufs: make(bufList[*bytes.Buffer], cfg.MaxConcurrent),
		respBufs: make(bufList[[]byte], cfg.MaxConcurrent),
		start:    time.Now(),
		flight:   obs.NewFlightRecorder(cfg.FlightRecorderSize),
		designs:  make(map[string]*Design),
		stop:     make(chan struct{}),
	}
}

// Engine exposes the shared sweep engine (for tests and stats).
func (s *Server) Engine() *sweep.Engine { return s.eng }

// DuplicateDesignError reports an attempt to register a second design
// under a name that is already taken. Callers registering from multiple
// sources (e.g. repeated -design flags) can unwrap it with errors.As to
// report which sources collided.
type DuplicateDesignError struct {
	Name string
}

func (e *DuplicateDesignError) Error() string {
	return fmt.Sprintf("server: design %q already registered", e.Name)
}

// AddResult registers a solved design under name (the design's own name
// when empty), eagerly compiling its evaluation plan so the first request
// pays no compile latency. Duplicate names are rejected: silently
// replacing a live design would make concurrent requests to one name
// answer from two different circuits.
func (s *Server) AddResult(name string, res *core.Result) (*Design, error) {
	return s.register(name, res, nil, false, ingest{})
}

// register installs res and its compiled plan under name (the design's
// own name when empty); a nil plan is obtained through the engine's
// cache, store and compile, and a given one is installed in the
// engine's plan cache. Without replace, a taken name is a
// DuplicateDesignError. With replace — the ECO path — any live design is
// swapped atomically under the registry lock: requests in flight keep
// sweeping the result they resolved, new requests see the replacement.
// from is the ingest res was solved from, kept for the next edit.
func (s *Server) register(name string, res *core.Result, plan *sweep.Plan, replace bool, from ingest) (*Design, error) {
	if name == "" {
		name = res.Analyzer.G.Design.Name
	}
	if plan == nil {
		var err error
		if plan, err = s.eng.Plan(res); err != nil {
			return nil, fmt.Errorf("server: compiling plan for %q: %w", name, err)
		}
	} else {
		s.eng.Install(plan)
	}
	seq := 0
	for v := 0; v < res.Analyzer.G.NumVerts(); v++ {
		if res.IsSequentialBit(graph.VertexID(v)) {
			seq++
		}
	}
	d := &Design{
		Name:     name,
		Result:   res,
		Plan:     plan.Stats(),
		Vertices: res.Analyzer.G.NumVerts(),
		SeqBits:  seq,
		from:     from,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old, dup := s.designs[name]
	if dup && !replace {
		return nil, &DuplicateDesignError{Name: name}
	}
	s.designs[name] = d
	s.reg.Gauge("server.designs").Set(float64(len(s.designs)))
	if dup {
		s.evictUnlessLive(old.Result.Analyzer.Fingerprint())
	}
	return d, nil
}

// evictUnlessLive drops the engine's cached plan for fingerprint fp
// unless a registered design still has it, so a replaced version's plan
// (and through it its analyzer and graph) does not stay cached until the
// LRU ages it out. A sweep still in flight on the replaced result may
// compile the plan back in; that entry then ages out like any other,
// which is tolerated. The caller holds s.mu.
func (s *Server) evictUnlessLive(fp uint64) {
	for _, d := range s.designs {
		if d.Result.Analyzer.Fingerprint() == fp {
			return
		}
	}
	s.eng.Evict(fp)
}

// LoadNetlist parses a textual netlist, solves it symbolically under
// opts, and registers it under name (the netlist's design name when
// empty). The solve runs against a neutral all-0.5 baseline: the closed
// forms — the only thing sweeps reuse — depend on graph structure alone,
// not on the baseline values.
//
// With Config.Artifacts set, the solve is skipped entirely when the
// store holds an artifact for the design's fingerprint (a warm start,
// counted as artifact.warm_start), and a cold solve is persisted back
// (artifact.cold_start) so the next process restart warm-starts.
func (s *Server) LoadNetlist(name string, r io.Reader, opts core.Options) (*Design, error) {
	return s.LoadNetlistContext(context.Background(), name, r, opts)
}

// LoadNetlistContext is LoadNetlist with request-scoped tracing: the
// artifact restore (warm start) or symbolic solve (cold start) nests
// under ctx's current span, and the span gains an "artifact" attribute
// ("warm" or "cold") that the flight recorder surfaces as the upload's
// plan disposition.
func (s *Server) LoadNetlistContext(ctx context.Context, name string, r io.Reader, opts core.Options) (*Design, error) {
	text, err := readText(r)
	if err != nil {
		return nil, fmt.Errorf("server: reading netlist: %w", err)
	}
	return s.loadNetlist(ctx, name, text, opts)
}

// loadNetlist is LoadNetlistContext on the whole netlist text, which the
// registered design keeps.
func (s *Server) loadNetlist(ctx context.Context, name string, text []byte, opts core.Options) (*Design, error) {
	in, err := s.analyzeNetlist(ctx, text, opts, ingest{})
	if err != nil {
		return nil, err
	}
	a := in.a
	if st := s.cfg.Artifacts; st != nil {
		res, plan, err := st.GetContext(ctx, a)
		if err != nil {
			// A stale or corrupt artifact is never fatal: fall through to
			// the cold solve and regenerate it.
			s.reg.Counter("server.artifact_errors").Inc()
		}
		if res != nil {
			// Uploads and startup loads always solve against the neutral
			// baseline, so a warm start usually skips even the
			// re-evaluation; a store shared with CLI runs may hold other
			// inputs, which are plugged back in.
			if in := neutralInputs(a); !res.Inputs.Equal(in) {
				if err := res.Reevaluate(in); err != nil {
					return nil, fmt.Errorf("server: re-evaluating stored artifact for %q: %w", a.G.Design.Name, err)
				}
			}
			s.reg.Counter("artifact.warm_start").Inc()
			obs.SpanFromContext(ctx).SetAttr("artifact", "warm")
			// The artifact held the compiled plan too: registering it
			// spares the engine a second store read and decode.
			return s.register(name, res, plan, false, in)
		}
	}
	res, err := a.SolveContext(ctx, neutralInputs(a))
	if err != nil {
		return nil, fmt.Errorf("server: solving %q: %w", a.G.Design.Name, err)
	}
	if s.cfg.Artifacts == nil {
		return s.register(name, res, nil, false, in)
	}
	// Compile through the sweep engine, whose second-level store (wired
	// in New) persists the artifact — result and plan together — so the
	// next restart warm-starts. The store already missed (or failed)
	// above, so the engine skips its own lookup.
	s.reg.Counter("artifact.cold_start").Inc()
	obs.SpanFromContext(ctx).SetAttr("artifact", "cold")
	plan, err := s.eng.CompileContext(ctx, res)
	if err != nil {
		return nil, fmt.Errorf("server: compiling plan for %q: %w", a.G.Design.Name, err)
	}
	return s.register(name, res, plan, false, in)
}

// readText reads a whole netlist, sized up front when r reports its
// length (bytes.Reader, strings.Reader).
func readText(r io.Reader) ([]byte, error) {
	var b bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		b.Grow(l.Len() + bytes.MinRead)
	}
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// analyzeNetlist runs the shared upload prelude — parse, validate,
// flatten, extract the bit graph, and build the analyzer — under an
// "analyze" span of ctx. Given the live version's ingest (an edit),
// each stage carries over what the edit left unchanged, every reuse
// decided by exact comparison: modules whose text is byte-identical
// (netlist.ParseFrom), flat FUBs whose module closure was reused
// (netlist.FlattenFrom), those FUBs' graph rows (graph.BuildFrom) and
// their fingerprints when roles and boundary match too
// (core.NewAnalyzerFrom). Validation, loop marking, the
// combinational-loop check and the analyzer's topological order stay
// whole-design. The span records how many FUBs were reused and rebuilt.
func (s *Server) analyzeNetlist(ctx context.Context, text []byte, opts core.Options, prior ingest) (ingest, error) {
	sp := s.reg.StartSpanContext(ctx, "analyze")
	defer sp.End()
	var (
		pd *netlist.Design
		pf *netlist.FlatDesign
		pg *graph.Graph
	)
	if prior.src != nil {
		pd, pg = prior.src.Design, prior.a.G
		pf = pg.Design
	}
	src, err := netlist.ParseFrom(text, prior.src)
	if err != nil {
		return ingest{}, fmt.Errorf("server: parsing netlist: %w", err)
	}
	d := src.Design
	if err := d.Validate(); err != nil {
		return ingest{}, fmt.Errorf("server: netlist %q: %w", d.Name, err)
	}
	fd, err := netlist.FlattenFrom(d, pd, pf)
	if err != nil {
		return ingest{}, fmt.Errorf("server: flattening %q: %w", d.Name, err)
	}
	g, err := graph.BuildFrom(fd, pg)
	if err != nil {
		return ingest{}, fmt.Errorf("server: building graph for %q: %w", d.Name, err)
	}
	opts.Obs = s.reg
	a, err := core.NewAnalyzerFrom(g, opts, prior.a)
	if err != nil {
		return ingest{}, fmt.Errorf("server: analyzing %q: %w", d.Name, err)
	}
	reused := 0
	for f := range g.FubNames {
		if g.RowsReused(f) {
			reused++
		}
	}
	sp.SetAttr("fubs_reused", reused)
	sp.SetAttr("fubs_rebuilt", len(g.FubNames)-reused)
	s.reg.Counter("server.ingest_fubs_reused").Add(int64(reused))
	return ingest{src: src, a: a}, nil
}

// EditNetlistContext applies an ECO to the registered design old: it
// parses the edited netlist, re-ingesting only what the edit changed
// (analyzeNetlist), re-solves it incrementally from old's converged
// state — walking only the FUBs whose fingerprints the edit moved — and
// atomically replaces the live design under old's name. The returned
// statistics report what was reused. A re-solve failure falls back to a
// cold solve (nil statistics) rather than failing the edit: incremental
// is an optimization. The request span gains artifact="incremental" (or
// "cold") so the flight recorder shows the disposition. With
// Config.Artifacts set, the replacement is persisted through the plan
// compile exactly like an upload.
func (s *Server) EditNetlistContext(ctx context.Context, old *Design, r io.Reader, opts core.Options) (*Design, *core.Incremental, error) {
	text, err := readText(r)
	if err != nil {
		return nil, nil, fmt.Errorf("server: reading netlist: %w", err)
	}
	return s.editNetlist(ctx, old, text, opts)
}

// editNetlist is EditNetlistContext on the whole edited netlist text,
// which the replacement design keeps.
func (s *Server) editNetlist(ctx context.Context, old *Design, text []byte, opts core.Options) (*Design, *core.Incremental, error) {
	in, err := s.analyzeNetlist(ctx, text, opts, old.from)
	if err != nil {
		return nil, nil, err
	}
	a := in.a
	inputs := neutralInputs(a)
	var (
		res *core.Result
		st  *core.Incremental
	)
	prior, err := old.Result.PriorState()
	if err == nil {
		res, st, err = a.ResolveIncrementalContext(ctx, inputs, prior)
	}
	if err != nil {
		// The prior was unusable (e.g. a design rename swapped in an
		// unrelated circuit): solve cold, the edit still lands.
		s.reg.Counter("server.edit_cold_fallbacks").Inc()
		res, err = a.SolveContext(ctx, inputs)
		if err != nil {
			return nil, nil, fmt.Errorf("server: solving %q: %w", a.G.Design.Name, err)
		}
	}
	disp := "cold"
	if st != nil {
		disp = "incremental"
	}
	obs.SpanFromContext(ctx).SetAttr("artifact", disp)
	d, err := s.register(old.Name, res, nil, true, in)
	if err != nil {
		return nil, nil, err
	}
	return d, st, nil
}

// neutralInputs assigns 0.5 to every structure port the design has; the
// symbolic solve only needs a complete environment, not meaningful values.
func neutralInputs(a *core.Analyzer) *core.Inputs {
	in := core.NewInputs()
	for _, sp := range a.ReadPortTerms() {
		in.ReadPorts[sp] = 0.5
	}
	for _, sp := range a.WritePortTerms() {
		in.WritePorts[sp] = 0.5
	}
	return in
}

// Design returns the registered design, or nil.
func (s *Server) Design(name string) *Design {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.designs[name]
}

// DesignNames returns the registered design names (unordered).
func (s *Server) DesignNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.designs))
	for n := range s.designs {
		names = append(names, n)
	}
	return names
}

// Abort cancels every in-flight sweep. Call it when a graceful drain
// (http.Server.Shutdown) exceeds its deadline: pending responses fail
// with 503 instead of holding the process open. Idempotent.
func (s *Server) Abort() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// acquire claims a concurrency slot without queueing. It returns false —
// backpressure — when every slot is busy.
func (s *Server) acquire() bool {
	select {
	case s.sem <- struct{}{}:
		s.setInFlight()
		if s.onSlotAcquired != nil {
			s.onSlotAcquired()
		}
		return true
	default:
		return false
	}
}

func (s *Server) release() {
	<-s.sem
	s.setInFlight()
}

// setInFlight publishes the slot count. Reading it and setting the
// gauge happen under one lock: unordered, a release that read 1 could
// land its Set after a later release's 0 and leave a drained server
// reporting a request in flight.
func (s *Server) setInFlight() {
	s.semMu.Lock()
	s.reg.Gauge("server.in_flight").Set(float64(len(s.sem)))
	s.semMu.Unlock()
}

// requestCtx derives the evaluation context for one request: the given
// context (the client's, already carrying the request span), capped by
// the request timeout, cancelled early by Abort.
func (s *Server) requestCtx(base context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(base, s.cfg.RequestTimeout)
	select {
	case <-s.stop:
		// Abort already happened: hand out a context that is cancelled
		// before the sweep starts, not racing a watcher goroutine.
		cancel()
		return ctx, cancel
	default:
	}
	go func() {
		select {
		case <-s.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}
