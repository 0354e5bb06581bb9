package server

import (
	"context"
	"io"
	"net/http"
	"time"

	"seqavf/internal/harden"
)

// decodeHarden serves POST /v1/harden: harden.Run over one registered
// design. With workloads in the request, node gains are computed on the
// mean AVF across them; without, on the design's solved baseline
// result. Term sensitivities (top_terms > 0) come from the artifact
// store's .sens cache when one is configured, keyed by (fingerprint, env
// hash).
//
// Ingest: the request decoder (decodeRequest, then harden's Validate)
// rejects NaN/Inf/negative budgets and malformed cost tables with
// field-level errors; workload pAVF tables then run through the same
// hardened parser /v1/sweep uses.
func (s *Server) decodeHarden(r *http.Request, body io.Reader) (job, error) {
	start := time.Now()
	req, how, err := decodeRequest[harden.Request](body, r.ContentLength)
	if err != nil {
		return job{decode: how}, err
	}
	j := job{design: req.Design, workloads: len(req.Workloads), decode: how}
	ws, err := parseTables(len(req.Workloads), func(i int) (string, string) {
		return req.Workloads[i].Name, req.Workloads[i].PAVF
	})
	if err != nil {
		return j, err
	}
	j.run = func(ctx context.Context, d *Design) (any, *Design, error) {
		var sens harden.SensStore
		if s.cfg.Artifacts != nil {
			sens = s.cfg.Artifacts
		}
		resp, err := harden.Run(ctx, s.eng, d.Result, ws, req, sens, s.reg)
		if err != nil {
			return nil, nil, err
		}
		switch resp.SensCache {
		case "hit":
			s.reg.Counter("harden.sens_cache_hits").Inc()
		case "miss":
			s.reg.Counter("harden.sens_cache_misses").Inc()
		}
		resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
		s.reg.Counter("harden.ok").Inc()
		return resp, d, nil
	}
	return j, nil
}
