package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"seqavf/internal/core"
	"seqavf/internal/pavfio"
	"seqavf/internal/sweep"
)

// SweepRequest is the body of POST /v1/sweep: one registered design plus
// one pAVF table per workload, in the same text format the CLIs exchange
// (see pavfio.Parse). Nodes additionally returns per-sequential-node
// seqAVFs for every workload.
type SweepRequest struct {
	Design    string          `json:"design"`
	Workloads []SweepWorkload `json:"workloads"`
	Nodes     bool            `json:"nodes,omitempty"`
}

// SweepWorkload names one workload and carries its measured pAVF table.
type SweepWorkload struct {
	Name string `json:"name"`
	PAVF string `json:"pavf"`
}

// The sweep responses are internal/sweep's reports, the same documents
// sweeprun prints; the names stay here for the service's clients.
type (
	SweepResponse  = sweep.SweepResponse
	WorkloadResult = sweep.WorkloadResult
)

// DesignInfo describes one registered design on GET /v1/designs.
type DesignInfo struct {
	Name     string      `json:"name"`
	Vertices int         `json:"vertices"`
	SeqBits  int         `json:"seq_bits"`
	Plan     sweep.Stats `json:"plan"`
}

// EditResponse describes an applied ECO on POST /v1/designs/{name}/edit:
// the replacement design plus what the incremental re-solve reused.
// Incremental is null when the re-solve fell back to a cold solve.
type EditResponse struct {
	DesignInfo
	Incremental *core.Incremental `json:"incremental"`
}

// Handler returns the service mux:
//
//	GET  /healthz        — liveness + design count
//	GET  /metrics        — Prometheus text exposition (scrape me)
//	GET  /metrics.json   — obs registry JSON snapshot (spans, manifest)
//	GET  /debug/requests — flight recorder: last K request records
//	GET  /debug/pprof/   — net/http/pprof profiles
//	GET  /v1/designs     — registered designs and plan shapes
//	POST /v1/designs     — upload a textual netlist; solve + register it
//	POST /v1/designs/{name}/edit — ECO: incremental re-solve + atomic replace
//	POST /v1/sweep       — evaluate workload pAVF tables through one design
//	POST /v1/sweep/intervals — time-resolved sweep: multi-window tables → AVF time series
//	POST /v1/harden      — selective-hardening optimizer: budget sweep → protection plans
//	GET  /v1/artifacts/{fingerprint} — raw .sart bytes (fleet pull-through)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.reg.PromHandler())
	mux.Handle("GET /metrics.json", s.reg.MetricsHandler())
	mux.Handle("GET /debug/requests", s.flight.Handler())
	mux.HandleFunc("GET /v1/designs", s.handleListDesigns)
	mux.HandleFunc("POST /v1/designs", s.serve("/v1/designs",
		s.reg.Counter("server.upload_requests"), http.StatusCreated, s.decodeUpload))
	mux.HandleFunc("POST /v1/designs/{name}/edit", s.serve("/v1/designs/{name}/edit",
		s.reg.Counter("server.edit_requests"), http.StatusOK, s.decodeEdit))
	mux.HandleFunc("POST /v1/sweep", s.serve("/v1/sweep",
		s.reg.Counter("server.sweep_requests"), http.StatusOK, s.decodeSweep))
	mux.HandleFunc("POST /v1/sweep/intervals", s.serve("/v1/sweep/intervals",
		s.reg.Counter("sweep.interval_requests"), http.StatusOK, s.decodeIntervals))
	mux.HandleFunc("POST /v1/harden", s.serve("/v1/harden",
		s.reg.Counter("harden.requests"), http.StatusOK, s.decodeHarden))
	mux.HandleFunc("GET /v1/artifacts/{fingerprint}", s.handleGetArtifact)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.designs)
	s.mu.RUnlock()
	_ = s.writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"designs":   n,
		"in_flight": len(s.sem),
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

func (s *Server) handleListDesigns(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]DesignInfo, 0, len(s.designs))
	for _, d := range s.designs {
		infos = append(infos, d.info())
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	_ = s.writeJSON(w, http.StatusOK, infos)
}

// decodeUpload reads a textual netlist; the run step solves it (or
// warm-starts it from the artifact store) and registers it.
func (s *Server) decodeUpload(r *http.Request, body io.Reader) (job, error) {
	nl, err := readBody(body)
	return job{upload: true, run: func(ctx context.Context, _ *Design) (any, *Design, error) {
		d, err := s.loadNetlist(ctx, r.URL.Query().Get("name"), nl, core.DefaultOptions())
		if err != nil {
			return nil, nil, err
		}
		return d.info(), d, nil
	}}, err
}

// decodeEdit reads an ECO for a registered design: the body is the full
// edited netlist, the re-solve is seeded from the live design's
// converged per-FUB state, and the registration is swapped atomically.
// The response reports how much of the prior solve survived the edit.
func (s *Server) decodeEdit(r *http.Request, body io.Reader) (job, error) {
	nl, err := readBody(body)
	return job{design: r.PathValue("name"), run: func(ctx context.Context, old *Design) (any, *Design, error) {
		d, st, err := s.editNetlist(ctx, old, nl, core.DefaultOptions())
		if err != nil {
			return nil, nil, err
		}
		return EditResponse{DesignInfo: d.info(), Incremental: st}, d, nil
	}}, err
}

// handleGetArtifact serves raw .sart bytes by fingerprint — the fleet's
// pull-through source. Peers verify what they fetch with the CRC-checked
// decoder, so this endpoint ships bytes as-is; it never decodes. A node
// without an artifact store (or without the artifact) answers 404 and
// the fetching peer moves down its rendezvous list.
func (s *Server) handleGetArtifact(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.artifact_requests").Inc()
	st := s.cfg.Artifacts
	if st == nil {
		s.writeErr(w, http.StatusNotFound, "artifact store not configured")
		return
	}
	key := r.PathValue("fingerprint")
	if len(key) != 16 {
		s.writeErr(w, http.StatusBadRequest, "fingerprint must be 16 hex digits")
		return
	}
	fp, err := strconv.ParseUint(key, 16, 64)
	if err != nil || strings.ContainsAny(key, "ABCDEF+-") {
		s.writeErr(w, http.StatusBadRequest, "fingerprint must be 16 lowercase hex digits")
		return
	}
	data, err := st.Raw(fp)
	if errors.Is(err, fs.ErrNotExist) {
		s.writeErr(w, http.StatusNotFound, "no artifact for fingerprint %s", key)
		return
	}
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, "reading artifact: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// decodeSweep decodes the envelope and runs every pAVF table through the
// hardened parser — the ingestion choke-point where a NaN, an
// out-of-range value, or a duplicate record fails the request before
// anything reaches the long-lived engine.
func (s *Server) decodeSweep(r *http.Request, body io.Reader) (job, error) {
	req, how, err := decodeRequest[SweepRequest](s.bodyBufs, body, r.ContentLength)
	if err != nil {
		return job{decode: how}, err
	}
	j := job{design: req.Design, workloads: len(req.Workloads), decode: how}
	if len(req.Workloads) == 0 {
		return j, errorf(http.StatusBadRequest, "no workloads in request")
	}
	ws, err := parseTables(len(req.Workloads), func(i int) (string, string) {
		return req.Workloads[i].Name, req.Workloads[i].PAVF
	})
	if err != nil {
		return j, err
	}
	j.run = func(ctx context.Context, d *Design) (any, *Design, error) {
		rep, err := s.eng.Report(ctx, d.Result, d.Name, ws, req.Nodes)
		if err != nil {
			return nil, nil, err
		}
		s.reg.Counter("server.sweep_ok").Inc()
		return rep, d, nil
	}
	return j, nil
}

// parseTables runs each of a request's n workload tables through the
// hardened pAVF parser. table returns workload i's name and table text;
// an unnamed workload is named by its index.
func parseTables(n int, table func(i int) (name, text string)) ([]sweep.Workload, error) {
	ws := make([]sweep.Workload, n)
	for i := range ws {
		name, text := table(i)
		name = workloadName(name, i)
		in, err := pavfio.ParseText(name, text)
		if err != nil {
			return nil, fmt.Errorf("workload %q: %v", name, err)
		}
		ws[i] = sweep.Workload{Name: name, Inputs: in}
	}
	return ws, nil
}

// workloadName is a request workload's name, or its index when unnamed.
func workloadName(name string, i int) string {
	if name == "" {
		return fmt.Sprintf("workload[%d]", i)
	}
	return name
}
