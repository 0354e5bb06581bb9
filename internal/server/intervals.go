package server

// POST /v1/sweep/intervals — the time-resolved sweep endpoint. The
// request carries one multi-window pAVF table per workload (the pavfio
// interval format); the engine evaluates every window as one lane of a
// single blocked batch and the response returns each workload's
// per-node AVF time series plus the summary statistics (peak window,
// peak/mean ratio) that a whole-run sweep cannot express.

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"seqavf/internal/pavfio"
	"seqavf/internal/sweep"
)

// IntervalSweepRequest is the body of POST /v1/sweep/intervals: one
// registered design plus one multi-window interval table per workload
// (see pavfio.ParseIntervals for the text format).
type IntervalSweepRequest struct {
	Design    string                  `json:"design"`
	Workloads []IntervalSweepWorkload `json:"workloads"`
	// Nodes includes each workload's per-sequential-node AVF time
	// series in the response.
	Nodes bool `json:"nodes,omitempty"`
}

// IntervalSweepWorkload names one workload and carries its interval
// table. Name may be empty when the table itself carries a
// "# workload" directive; when both are present they must agree.
type IntervalSweepWorkload struct {
	Name  string `json:"name"`
	Table string `json:"table"`
}

// The interval response is internal/sweep's time-resolved report, the
// document sweeprun -windows prints; IntervalWindowInfo is one window's
// half-open cycle span.
type (
	IntervalSweepResponse  = sweep.IntervalSweepResponse
	IntervalWorkloadResult = sweep.IntervalWorkloadResult
	IntervalWindowInfo     = sweep.WindowSpan
)

// decodeIntervals decodes the envelope and runs every interval table
// through the strict multi-window parser — malformed geometry or a
// single out-of-range value fails the request here, before anything
// reaches the engine.
func (s *Server) decodeIntervals(r *http.Request, body io.Reader) (job, error) {
	req, how, err := decodeRequest[IntervalSweepRequest](s.bodyBufs, body, r.ContentLength)
	if err != nil {
		return job{decode: how}, err
	}
	j := job{design: req.Design, workloads: len(req.Workloads), decode: how}
	if len(req.Workloads) == 0 {
		return j, errorf(http.StatusBadRequest, "no workloads in request")
	}
	ws := make([]sweep.IntervalWorkload, len(req.Workloads))
	for i, rw := range req.Workloads {
		name := workloadName(rw.Name, i)
		tab, err := pavfio.ParseIntervalsText(name, rw.Table)
		if err != nil {
			return j, fmt.Errorf("workload %q: %v", name, err)
		}
		// Name consistency: a table directive must agree with the
		// request's name for the same workload (and supplies the name
		// when the request omits it).
		if tab.Workload != "" {
			if rw.Name != "" && rw.Name != tab.Workload {
				return j, fmt.Errorf("workload %q: table's '# workload %s' directive disagrees with the request name",
					rw.Name, tab.Workload)
			}
			name = tab.Workload
		}
		ws[i] = sweep.NewIntervalWorkload(name, tab)
	}
	j.run = func(ctx context.Context, d *Design) (any, *Design, error) {
		rep, err := s.eng.ReportIntervals(ctx, d.Result, d.Name, ws, req.Nodes)
		if err != nil {
			return nil, nil, err
		}
		s.reg.Counter("server.interval_sweep_ok").Inc()
		return rep, d, nil
	}
	return j, nil
}
