package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"seqavf/internal/harden"
	"seqavf/internal/obs"
)

// decodeHarden serves POST /v1/harden: the selective-hardening
// optimizer over one registered design. With workloads in the request,
// node gains are computed on the mean AVF across them (one blocked
// sweep); without, on the design's solved baseline result. Term
// sensitivities (top_terms > 0) come from the artifact store's .sens
// cache when one is configured, keyed by (fingerprint, env hash).
//
// Ingest: the strict request parser rejects NaN/Inf/negative budgets
// and malformed cost tables with field-level errors; workload pAVF
// tables then run through the same hardened parser /v1/sweep uses.
func (s *Server) decodeHarden(_ *http.Request, body io.Reader) (job, error) {
	start := time.Now()
	data, err := readBody(body)
	if err != nil {
		return job{}, err
	}
	req, err := harden.ParseRequest(data)
	if err != nil {
		return job{}, errorf(http.StatusBadRequest, "%v", err)
	}
	j := job{design: req.Design, workloads: len(req.Workloads)}
	ws, err := parseTables(len(req.Workloads), func(i int) (string, string) {
		return req.Workloads[i].Name, req.Workloads[i].PAVF
	})
	if err != nil {
		return j, err
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	j.run = func(ctx context.Context, d *Design) (any, *Design, error) {
		// The optimization substrate: the design's solved result, or —
		// with workloads — a shallow copy carrying the mean AVF vector
		// across them (gains are linear in AVF, so the mean-AVF plan
		// minimizes the mean residual chip AVF over the workload set).
		agg := d.Result
		a := d.Result.Analyzer
		env, err := a.CheckedEnv(d.Result.Inputs)
		if err != nil {
			return nil, nil, errorf(http.StatusInternalServerError, "design env: %v", err)
		}
		if len(ws) > 0 {
			batch, err := s.eng.SweepContext(ctx, d.Result, ws)
			if err != nil {
				return nil, nil, err
			}
			// Each result carries the environment the sweep built and
			// validated for its workload; the mean env is summed from
			// those, in workload order.
			mean := make([]float64, len(d.Result.AVF))
			envSum := make([]float64, len(env))
			for _, res := range batch.Results {
				for v, x := range res.AVF {
					mean[v] += x
				}
				for t, x := range res.Env {
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
			cp := *d.Result
			cp.AVF = mean
			agg = &cp
		}

		model, err := harden.NewModel(agg, req.Costs)
		if err != nil {
			return nil, nil, err
		}
		osp := s.reg.StartSpanContext(ctx, "harden.optimize")
		plans, err := model.Sweep(req.Budgets, req.Solver)
		osp.SetAttr("budgets", len(req.Budgets))
		osp.End()
		s.reg.FixedHistogram("harden.optimize_seconds", obs.LatencyBuckets).Observe(osp.Duration().Seconds())
		if err != nil {
			return nil, nil, err
		}

		resp := harden.Response{
			Design:      d.Name,
			Workloads:   names,
			SeqBits:     model.SeqBits(),
			Candidates:  len(model.Candidates()),
			BaseChipAVF: model.Base().WeightedSeqAVF,
			Plans:       plans,
		}
		if req.TopTerms > 0 {
			// Term sensitivities are computed at the (mean) environment
			// via the analytical gradient, consulting the .sens cache
			// first. The plan comes from the engine's LRU, so a warm
			// design pays nothing.
			plan, err := s.eng.PlanContext(ctx, d.Result)
			if err != nil {
				return nil, nil, fmt.Errorf("compiling plan: %w", err)
			}
			var st harden.SensStore
			if s.cfg.Artifacts != nil {
				st = s.cfg.Artifacts
			}
			vec, hit, err := harden.CachedTermDerivs(plan, env, st)
			if err != nil {
				return nil, nil, fmt.Errorf("term sensitivities: %v", err)
			}
			if hit {
				s.reg.Counter("harden.sens_cache_hits").Inc()
				resp.SensCache = "hit"
			} else {
				s.reg.Counter("harden.sens_cache_misses").Inc()
				resp.SensCache = "miss"
			}
			ranked := harden.RankDerivs(a.Universe(), vec.Deriv)
			if len(ranked) > req.TopTerms {
				ranked = ranked[:req.TopTerms]
			}
			resp.TopTerms = ranked
		}
		resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
		s.reg.Counter("harden.ok").Inc()
		return resp, d, nil
	}
	return j, nil
}
