// The harden request path POST /v1/harden and cmd/hardentool share: a
// strict JSON request parser (unknown fields, non-finite numbers, and
// out-of-range budgets are rejected with field-level errors — the fuzz
// target's contract), the response shape both ends emit, and Run, the
// one pipeline from a solved design to that response.

package harden

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"seqavf/internal/core"
	"seqavf/internal/obs"
	"seqavf/internal/pavf"
	"seqavf/internal/sweep"
)

const (
	// MaxBudgets bounds one request's budget sweep; a bigger sweep
	// belongs in multiple requests.
	MaxBudgets = 64
	// MaxTopTerms bounds the term-sensitivity report length.
	MaxTopTerms = 10000
)

// Workload is one named pAVF environment in a harden request, in the
// same inline text format /v1/sweep accepts.
type Workload struct {
	Name string `json:"name"`
	PAVF string `json:"pavf"`
}

// Request is the body of POST /v1/harden.
type Request struct {
	// Design names a loaded design.
	Design string `json:"design"`
	// Workloads are optional; with none, the optimizer runs on the
	// design's solved (neutral-input) result. With several, node gains
	// are computed on the mean AVF across workloads.
	Workloads []Workload `json:"workloads,omitempty"`
	// Budgets are the protection budget points to solve, in cost units
	// (default cost: bits). Each must be finite and positive.
	Budgets []float64 `json:"budgets"`
	// Solver is "auto" (default), "greedy", "dp", or "exhaustive".
	Solver string `json:"solver,omitempty"`
	// Costs overrides per-node hardening costs by "fub/node" key.
	Costs map[string]float64 `json:"costs,omitempty"`
	// TopTerms asks for the N most sensitive pAVF terms (0 = omit).
	TopTerms int `json:"top_terms,omitempty"`
}

// ParseRequest decodes a harden request body and validates it (see
// Validate).
func ParseRequest(data []byte) (*Request, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Request
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("harden: parse request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("harden: parse request: trailing data after JSON object")
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Validate applies ParseRequest's checks to a decoded request: a design
// name, 1..MaxBudgets finite positive budgets, a known solver, finite
// positive costs, top_terms in [0, MaxTopTerms], and a name and a table
// for every workload. A decoder other than ParseRequest's must call it
// to accept exactly what ParseRequest accepts.
func (r *Request) Validate() error {
	if r.Design == "" {
		return fmt.Errorf("harden: request missing design name")
	}
	if len(r.Budgets) == 0 {
		return fmt.Errorf("harden: request has no budgets")
	}
	if len(r.Budgets) > MaxBudgets {
		return fmt.Errorf("harden: request has %d budgets, cap is %d", len(r.Budgets), MaxBudgets)
	}
	for i, b := range r.Budgets {
		if math.IsNaN(b) || math.IsInf(b, 0) || b <= 0 {
			return fmt.Errorf("harden: budget[%d] is %v, must be finite and positive", i, b)
		}
	}
	if !ValidSolver(r.Solver) {
		return fmt.Errorf("harden: unknown solver %q (want auto, greedy, dp, or exhaustive)", r.Solver)
	}
	for key, c := range r.Costs {
		if math.IsNaN(c) || math.IsInf(c, 0) || c <= 0 {
			return fmt.Errorf("harden: cost for %q is %v, must be finite and positive", key, c)
		}
	}
	if r.TopTerms < 0 || r.TopTerms > MaxTopTerms {
		return fmt.Errorf("harden: top_terms %d out of range [0, %d]", r.TopTerms, MaxTopTerms)
	}
	for i, w := range r.Workloads {
		if w.Name == "" {
			return fmt.Errorf("harden: workload[%d] missing name", i)
		}
		if w.PAVF == "" {
			return fmt.Errorf("harden: workload %q has an empty pavf table", w.Name)
		}
	}
	return nil
}

// Response is the body returned by POST /v1/harden.
type Response struct {
	Design    string   `json:"design"`
	Workloads []string `json:"workloads,omitempty"`
	// SeqBits is the protectable sequential bit count.
	SeqBits int `json:"seq_bits"`
	// Candidates is the number of protectable nodes.
	Candidates  int     `json:"candidates"`
	BaseChipAVF float64 `json:"base_chip_avf"`
	// SensCache reports whether the term-sensitivity vector came from the
	// artifact store ("hit"), was computed ("miss"), or wasn't requested
	// ("").
	SensCache string `json:"sens_cache,omitempty"`
	// Plans holds one protection plan per requested budget, in order.
	Plans []*Protection `json:"plans"`
	// TopTerms, when requested, ranks pAVF terms by |∂chipAVF/∂term|.
	TopTerms  []TermSensitivity `json:"top_terms,omitempty"`
	ElapsedMS float64           `json:"elapsed_ms"`
}

// Run answers one harden request on the solved design res.
//
// With workloads, node gains are computed on the mean AVF across them —
// one blocked sweep through eng; gains are linear in AVF, so the
// mean-AVF plan minimizes the mean residual chip AVF over the workload
// set — and term sensitivities at their mean environment. Without, both
// use res itself. ws are the request's workloads already parsed;
// req.Workloads is not read.
//
// Term sensitivities (req.TopTerms > 0) come from the analytical
// gradient over eng's compiled plan for res, consulting sens first when
// it is non-nil. The budget sweep is timed as the harden.optimize span
// (under ctx's span) and histogram. ElapsedMS is left to the caller,
// which knows when its request began.
func Run(ctx context.Context, eng *sweep.Engine, res *core.Result, ws []sweep.Workload,
	req *Request, sens SensStore, reg *obs.Registry) (*Response, error) {
	resp := &Response{Design: req.Design}
	agg, env := res, res.Env
	if len(ws) > 0 {
		batch, err := eng.SweepContext(ctx, res, ws)
		if err != nil {
			return nil, err
		}
		// Each result carries the environment the sweep built and
		// validated for its workload; both means sum in workload order.
		mean := make([]float64, len(res.AVF))
		env = make(pavf.Env, len(res.Env))
		for i, r := range batch.Results {
			resp.Workloads = append(resp.Workloads, ws[i].Name)
			for v, x := range r.AVF {
				mean[v] += x
			}
			for t, x := range r.Env {
				env[t] += x
			}
		}
		n := float64(len(ws))
		for v := range mean {
			mean[v] /= n
		}
		for t := range env {
			env[t] /= n
		}
		cp := *res
		cp.AVF = mean
		agg = &cp
	}

	model, err := NewModel(agg, req.Costs)
	if err != nil {
		return nil, err
	}
	osp := reg.StartSpanContext(ctx, "harden.optimize")
	resp.Plans, err = model.Sweep(req.Budgets, req.Solver)
	osp.SetAttr("budgets", len(req.Budgets))
	osp.End()
	reg.FixedHistogram("harden.optimize_seconds", obs.LatencyBuckets).Observe(osp.Duration().Seconds())
	if err != nil {
		return nil, err
	}
	resp.SeqBits = model.SeqBits()
	resp.Candidates = len(model.Candidates())
	resp.BaseChipAVF = model.Base().WeightedSeqAVF

	if req.TopTerms > 0 {
		// The plan comes from the engine's LRU, so a warm design pays
		// nothing to compile.
		plan, err := eng.PlanContext(ctx, res)
		if err != nil {
			return nil, fmt.Errorf("compiling plan: %w", err)
		}
		vec, hit, err := CachedTermDerivs(plan, env, sens)
		if err != nil {
			return nil, fmt.Errorf("term sensitivities: %v", err)
		}
		resp.SensCache = "miss"
		if hit {
			resp.SensCache = "hit"
		}
		resp.TopTerms = RankDerivs(res.Analyzer.Universe(), vec.Deriv)
		if len(resp.TopTerms) > req.TopTerms {
			resp.TopTerms = resp.TopTerms[:req.TopTerms]
		}
	}
	return resp, nil
}
