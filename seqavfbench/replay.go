package main

// The in-process replay. A replayer runs one workload op through the
// same public functions, in the same order, as the seqavfd handlers do,
// and renders the response the handler would write. Untraced, it
// produces the references every server response is checked against.
// Traced, each layer call is wrapped in a span kept in memory, which
// gives the per-layer numbers without touching program code.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seqavf/internal/artifact"
	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/harden"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavfio"
	"seqavf/internal/server"
	"seqavf/internal/sweep"
)

// span is one timed call. parent indexes the enclosing span (-1 for a
// root). Spans of one op share a tracer.
type span struct {
	name       string
	parent     int
	start, end time.Time
}

// tracer records the spans of one op, in memory. A nil *tracer records
// nothing, so the untraced replay runs the same code.
type tracer struct {
	spans []span
	stack []int
	// counts are per-op quantities measured at the same boundaries.
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{counts: make(map[string]float64)} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].end = time.Now()
	t.stack = t.stack[:n]
}

func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// selfMS returns each span name's self time in milliseconds: its
// duration minus the part its child spans cover.
func (t *tracer) selfMS() map[string]float64 {
	self := make(map[string]float64)
	for _, s := range t.spans {
		d := float64(s.end.Sub(s.start).Nanoseconds()) / 1e6
		self[s.name] += d
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= d
		}
	}
	return self
}

// sideSpan names the root of measurements made beside the handler path
// (the env/kernel split); it is not part of an op's replayed time.
const sideSpan = "side"

// handlerMS is the op's replayed handler time: the root spans, minus the
// side pass.
func (t *tracer) handlerMS() float64 {
	total := 0.0
	for _, s := range t.spans {
		if s.parent < 0 && s.name != sideSpan {
			total += float64(s.end.Sub(s.start).Nanoseconds()) / 1e6
		}
	}
	return total
}

// timedStore is the replay's artifact tier: the real store, with plan
// writes wrapped in an artifact.put span.
type timedStore struct {
	st *artifact.Store
	r  *replayer
}

func (s timedStore) GetPlan(ctx context.Context, res *core.Result) (*sweep.Plan, error) {
	return s.st.GetPlan(ctx, res)
}

func (s timedStore) PutPlan(res *core.Result, p *sweep.Plan) error {
	s.r.tr.begin("artifact.put")
	defer s.r.tr.end()
	return s.st.PutPlan(res, p)
}

// replayer mirrors one seqavfd process: an engine with the server's
// default options and a telemetry registry, an optional artifact store,
// and the live design.
type replayer struct {
	in    *inputs
	reg   *obs.Registry
	eng   *sweep.Engine
	store *artifact.Store
	live  *core.Result
	// tr is the current op's tracer, nil when untraced.
	tr *tracer
}

// newReplayer solves the base design the way an upload does. storeDir
// "" runs without an artifact store.
func newReplayer(in *inputs, storeDir string) (*replayer, error) {
	r := &replayer{in: in, reg: obs.New()}
	opts := sweep.Options{Obs: r.reg}
	if storeDir != "" {
		// 1 GiB is seqavfd's default -artifacts-max.
		st, err := artifact.Open(storeDir, artifact.Options{MaxBytes: 1 << 30, Obs: r.reg})
		if err != nil {
			return nil, err
		}
		r.store = st
		opts.Store = timedStore{st: st, r: r}
	}
	r.eng = sweep.New(opts)
	a, err := r.analyze(in.netlist)
	if err != nil {
		return nil, err
	}
	res, err := a.Solve(neutralInputs(a))
	if err != nil {
		return nil, fmt.Errorf("solving base design: %w", err)
	}
	if _, err := r.eng.Plan(res); err != nil {
		return nil, err
	}
	r.live = res
	return r, nil
}

// op replays workload op i and returns the response bodies the server
// should have written, in request order.
func (r *replayer) op(i int) ([][]byte, error) {
	switch r.in.workload {
	case "eco_loop":
		k := i % poolSize
		e, err := r.edit(r.in.editBody(i))
		if err != nil {
			return nil, err
		}
		iv, err := r.intervals(r.in.intervals[k])
		if err != nil {
			return nil, err
		}
		h, err := r.harden(r.in.harden[k])
		if err != nil {
			return nil, err
		}
		return [][]byte{e, iv, h}, nil
	default:
		b, err := r.sweep(r.in.bodies[i%poolSize])
		if err != nil {
			return nil, err
		}
		return [][]byte{b}, nil
	}
}

// encode renders v exactly as the handlers' writeJSON does.
func (r *replayer) encode(v any) ([]byte, error) {
	r.tr.begin("server.encode")
	defer r.tr.end()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	r.tr.count("server.response_bytes", float64(buf.Len()))
	return buf.Bytes(), nil
}

// sweep mirrors POST /v1/sweep.
func (r *replayer) sweep(body []byte) ([]byte, error) {
	r.tr.begin("server.decode")
	var req server.SweepRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	ws, err := r.parseTables(req.Workloads)
	if err != nil {
		return nil, err
	}
	res := r.live
	r.tr.begin("sweep.eval")
	batch, err := r.eng.SweepContext(context.Background(), res, ws)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	r.tr.count("sweep.lanes", float64(len(ws)))
	if err := r.splitEval(batch.Plan, ws); err != nil {
		return nil, err
	}
	resp := server.SweepResponse{
		Design:    req.Design,
		Workloads: len(batch.Results),
		Plan:      batch.Plan.Stats(),
		ElapsedMS: float64(batch.Elapsed.Microseconds()) / 1e3,
		PerSec:    batch.WorkloadsPerSec(),
		Results:   make([]server.WorkloadResult, len(batch.Results)),
	}
	for i, res := range batch.Results {
		r.tr.begin("core.summarize")
		wr := server.WorkloadResult{Name: batch.Names[i], Summary: res.Summarize()}
		r.tr.end()
		if req.Nodes {
			r.tr.begin("core.nodes")
			wr.SeqAVF = res.SeqAVFByNode()
			r.tr.end()
		}
		resp.Results[i] = wr
	}
	return r.encode(resp)
}

// parseTables runs each inline pAVF table through pavfio.Parse, naming
// unnamed workloads as the handler does.
func (r *replayer) parseTables(tables []server.SweepWorkload) ([]sweep.Workload, error) {
	r.tr.begin("pavfio.parse")
	defer r.tr.end()
	ws := make([]sweep.Workload, len(tables))
	for i, t := range tables {
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("workload[%d]", i)
		}
		in, err := pavfio.Parse(name, strings.NewReader(t.PAVF))
		if err != nil {
			return nil, err
		}
		ws[i] = sweep.Workload{Name: name, Inputs: in}
	}
	return ws, nil
}

// splitEval, when tracing, re-runs the blocked sweep of ws
// beside the handler path in two parallel phases: every block's
// EnvMatrix.Reset (sweep.env), then every block's Plan.EvalBlock
// (sweep.kernel). Blocks and workers follow the engine's defaults, so
// both are wall times comparable with sweep.eval; eval minus env minus
// kernel is result materialization and pool overhead.
func (r *replayer) splitEval(plan *sweep.Plan, ws []sweep.Workload) error {
	if r.tr == nil {
		return nil
	}
	var blocks [][]sweep.Workload
	for lo := 0; lo < len(ws); lo += sweep.DefaultBlockSize {
		blocks = append(blocks, ws[lo:min(lo+sweep.DefaultBlockSize, len(ws))])
	}
	ms := make([]sweep.EnvMatrix, len(blocks))
	scratch := make([][]float64, len(blocks))
	outs := make([][][]float64, len(blocks))
	for b, blk := range blocks {
		scratch[b] = make([]float64, plan.ScratchLen(len(blk)))
		outs[b] = make([][]float64, len(blk))
		for w := range outs[b] {
			outs[b][w] = make([]float64, plan.NumVerts())
		}
	}
	r.tr.begin(sideSpan)
	defer r.tr.end()
	r.tr.begin("sweep.env")
	err := parallelBlocks(len(blocks), func(b int) error { return ms[b].Reset(plan.Analyzer, blocks[b]) })
	r.tr.end()
	if err != nil {
		return err
	}
	r.tr.begin("sweep.kernel")
	err = parallelBlocks(len(blocks), func(b int) error { return plan.EvalBlock(&ms[b], scratch[b], outs[b]) })
	r.tr.end()
	return err
}

// parallelBlocks runs fn over n blocks on min(GOMAXPROCS, n) goroutines
// that claim blocks in order, like the engine's worker pool.
func parallelBlocks(n int, fn func(b int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := int(next.Add(1)) - 1; b < n; b = int(next.Add(1)) - 1 {
				if err := fn(b); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// analyze mirrors the server's upload prelude: parse, validate, flatten,
// build the bit graph and the analyzer.
func (r *replayer) analyze(text []byte) (*core.Analyzer, error) {
	r.tr.begin("netlist.analyze")
	defer r.tr.end()
	d, err := netlist.Parse(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	fd, err := netlist.Flatten(d)
	if err != nil {
		return nil, err
	}
	g, err := graph.Build(fd)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Obs = r.reg
	return core.NewAnalyzer(g, opts)
}

// neutralInputs assigns 0.5 to every structure port, as the server's
// uploads and edits do.
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

// edit mirrors POST /v1/designs/{name}/edit.
func (r *replayer) edit(body []byte) ([]byte, error) {
	r.tr.begin("server.decode")
	text, err := io.ReadAll(bytes.NewReader(body))
	r.tr.end()
	if err != nil {
		return nil, err
	}
	a, err := r.analyze(text)
	if err != nil {
		return nil, err
	}
	in := neutralInputs(a)
	r.tr.begin("core.prior")
	prior, err := r.live.PriorState()
	r.tr.end()
	if err != nil {
		return nil, err
	}
	r.tr.begin("core.resolve")
	res, st, err := a.ResolveIncrementalContext(context.Background(), in, prior)
	r.tr.end()
	if err != nil {
		// The server falls back to a cold solve and answers with a null
		// incremental, which the checker counts as a failure.
		return nil, fmt.Errorf("incremental re-solve: %w", err)
	}
	r.tr.count("core.fubs_dirty", float64(st.FubsDirty))
	r.tr.count("core.fubs_total", float64(st.FubsTotal))
	r.tr.begin("sweep.plan")
	plan, err := r.eng.Plan(res)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	if r.tr != nil && r.store != nil {
		if raw, err := r.store.Raw(a.Fingerprint()); err == nil {
			r.tr.count("artifact.put_bytes", float64(len(raw)))
		}
	}
	r.live = res
	seq := 0
	for v := 0; v < a.G.NumVerts(); v++ {
		if res.IsSequentialBit(graph.VertexID(v)) {
			seq++
		}
	}
	return r.encode(server.EditResponse{
		DesignInfo: server.DesignInfo{
			Name: a.G.Design.Name, Vertices: a.G.NumVerts(), SeqBits: seq, Plan: plan.Stats(),
		},
		Incremental: st,
	})
}

// intervals mirrors POST /v1/sweep/intervals (summary only).
func (r *replayer) intervals(body []byte) ([]byte, error) {
	r.tr.begin("server.decode")
	var req server.IntervalSweepRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	r.tr.begin("pavfio.parse_intervals")
	ws := make([]sweep.IntervalWorkload, len(req.Workloads))
	for i, rw := range req.Workloads {
		tab, perr := pavfio.ParseIntervals(rw.Name, strings.NewReader(rw.Table))
		if perr != nil {
			err = perr
			break
		}
		iw := sweep.IntervalWorkload{Name: rw.Name}
		if tab.Workload != "" {
			iw.Name = tab.Workload
		}
		for _, win := range tab.Windows {
			iw.Windows = append(iw.Windows, sweep.WindowSpan{Start: win.Start, End: win.End})
			iw.Inputs = append(iw.Inputs, win.Inputs)
		}
		ws[i] = iw
	}
	r.tr.end()
	if err != nil {
		return nil, err
	}
	r.tr.begin("sweep.intervals")
	batch, err := r.eng.SweepIntervalsContext(context.Background(), r.live, ws)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	r.tr.count("sweep.lanes", float64(batch.WindowsEvaluated))
	resp := server.IntervalSweepResponse{
		Design:           req.Design,
		Workloads:        len(batch.Workloads),
		WindowsEvaluated: batch.WindowsEvaluated,
		Plan:             batch.Plan.Stats(),
		ElapsedMS:        float64(batch.Elapsed.Microseconds()) / 1e3,
		Results:          make([]server.IntervalWorkloadResult, len(batch.Workloads)),
	}
	for i, iw := range batch.Workloads {
		wr := server.IntervalWorkloadResult{
			Name:             iw.Name,
			Windows:          make([]server.IntervalWindowInfo, len(iw.Windows)),
			ChipAVF:          iw.Summary.ChipAVF,
			TimeWeightedMean: iw.Summary.TimeWeightedMean,
			PeakWindow:       iw.Summary.PeakWindow,
			PeakChipAVF:      iw.Summary.PeakChipAVF,
			PeakToMean:       iw.Summary.PeakToMean,
		}
		for wi, s := range iw.Windows {
			wr.Windows[wi] = server.IntervalWindowInfo{Start: s.Start, End: s.End}
		}
		resp.Results[i] = wr
	}
	return r.encode(resp)
}

// harden mirrors POST /v1/harden with workloads and top_terms.
func (r *replayer) harden(body []byte) ([]byte, error) {
	r.tr.begin("server.decode")
	req, err := harden.ParseRequest(body)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	tables := make([]server.SweepWorkload, len(req.Workloads))
	names := make([]string, len(req.Workloads))
	for i, w := range req.Workloads {
		tables[i] = server.SweepWorkload{Name: w.Name, PAVF: w.PAVF}
		names[i] = w.Name
	}
	ws, err := r.parseTables(tables)
	if err != nil {
		return nil, err
	}
	d := r.live
	a := d.Analyzer
	r.tr.begin("sweep.eval")
	batch, err := r.eng.SweepContext(context.Background(), d, ws)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	r.tr.count("sweep.lanes", float64(len(ws)))
	if err := r.splitEval(batch.Plan, ws); err != nil {
		return nil, err
	}

	r.tr.begin("harden.model")
	env, err := a.CheckedEnv(d.Inputs)
	if err != nil {
		r.tr.end()
		return nil, err
	}
	mean := make([]float64, len(d.AVF))
	for _, res := range batch.Results {
		for v, x := range res.AVF {
			mean[v] += x
		}
	}
	envSum := make([]float64, len(env))
	for _, wl := range ws {
		wenv, err := a.CheckedEnv(wl.Inputs)
		if err != nil {
			r.tr.end()
			return nil, err
		}
		for t, x := range wenv {
			envSum[t] += x
		}
	}
	n := float64(len(ws))
	for v := range mean {
		mean[v] /= n
	}
	for t := range envSum {
		env[t] = envSum[t] / n
	}
	cp := *d
	cp.AVF = mean
	model, err := harden.NewModel(&cp, req.Costs)
	r.tr.end()
	if err != nil {
		return nil, err
	}

	r.tr.begin("harden.optimize")
	plans, err := model.Sweep(req.Budgets, req.Solver)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	resp := harden.Response{
		Design:      req.Design,
		Workloads:   names,
		SeqBits:     model.SeqBits(),
		Candidates:  len(model.Candidates()),
		BaseChipAVF: model.Base().WeightedSeqAVF,
		Plans:       plans,
	}

	r.tr.begin("harden.sens")
	plan, err := r.eng.Plan(d)
	if err != nil {
		r.tr.end()
		return nil, err
	}
	var st harden.SensStore
	if r.store != nil {
		st = r.store
	}
	vec, hit, err := harden.CachedTermDerivs(plan, env, st)
	if err != nil {
		r.tr.end()
		return nil, err
	}
	resp.SensCache = "miss"
	if hit {
		resp.SensCache = "hit"
		r.tr.count("harden.sens_hits", 1)
	}
	r.tr.count("harden.sens_lookups", 1)
	ranked := harden.RankDerivs(a.Universe(), vec.Deriv)
	if len(ranked) > req.TopTerms {
		ranked = ranked[:req.TopTerms]
	}
	resp.TopTerms = ranked
	r.tr.end()
	return r.encode(resp)
}
