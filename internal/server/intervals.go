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

// IntervalSweepResponse reports the time-resolved sweep: plan
// statistics plus per-workload AVF time series, index-aligned with the
// request.
type IntervalSweepResponse struct {
	Design           string                   `json:"design"`
	Workloads        int                      `json:"workloads"`
	WindowsEvaluated int                      `json:"windows_evaluated"`
	Plan             sweep.Stats              `json:"plan"`
	ElapsedMS        float64                  `json:"eval_elapsed_ms"`
	Results          []IntervalWorkloadResult `json:"results"`
}

// IntervalWindowInfo is one window's half-open cycle span.
type IntervalWindowInfo struct {
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
}

// IntervalWorkloadResult is one workload's AVF time series: the window
// geometry, the per-window chip AVF, its peak statistics, and (with
// nodes: true) the per-sequential-node series, each value index-aligned
// with Windows.
type IntervalWorkloadResult struct {
	Name             string               `json:"name"`
	Windows          []IntervalWindowInfo `json:"windows"`
	ChipAVF          []float64            `json:"chip_avf"`
	TimeWeightedMean float64              `json:"time_weighted_mean"`
	PeakWindow       int                  `json:"peak_window"`
	PeakChipAVF      float64              `json:"peak_chip_avf"`
	PeakToMean       float64              `json:"peak_to_mean"`
	SeqAVF           map[string][]float64 `json:"seqavf,omitempty"`
}

// decodeIntervals decodes the envelope and runs every interval table
// through the strict multi-window parser — malformed geometry or a
// single out-of-range value fails the request here, before anything
// reaches the engine.
func (s *Server) decodeIntervals(_ *http.Request, body io.Reader) (job, error) {
	var req IntervalSweepRequest
	if err := decodeJSON(body, &req); err != nil {
		return job{}, err
	}
	j := job{design: req.Design, workloads: len(req.Workloads)}
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
		iw := sweep.IntervalWorkload{Name: name}
		for _, win := range tab.Windows {
			iw.Windows = append(iw.Windows, sweep.WindowSpan{Start: win.Start, End: win.End})
			iw.Inputs = append(iw.Inputs, win.Inputs)
		}
		ws[i] = iw
	}
	j.run = func(ctx context.Context, d *Design) (any, *Design, error) {
		batch, err := s.eng.SweepIntervalsContext(ctx, d.Result, ws)
		if err != nil {
			return nil, nil, err
		}
		resp := IntervalSweepResponse{
			Design:           d.Name,
			Workloads:        len(batch.Workloads),
			WindowsEvaluated: batch.WindowsEvaluated,
			Plan:             batch.Plan.Stats(),
			ElapsedMS:        float64(batch.Elapsed.Microseconds()) / 1e3,
			Results:          make([]IntervalWorkloadResult, len(batch.Workloads)),
		}
		for i, iw := range batch.Workloads {
			wr := IntervalWorkloadResult{
				Name:             iw.Name,
				Windows:          make([]IntervalWindowInfo, len(iw.Windows)),
				ChipAVF:          iw.Summary.ChipAVF,
				TimeWeightedMean: iw.Summary.TimeWeightedMean,
				PeakWindow:       iw.Summary.PeakWindow,
				PeakChipAVF:      iw.Summary.PeakChipAVF,
				PeakToMean:       iw.Summary.PeakToMean,
			}
			for wi, span := range iw.Windows {
				wr.Windows[wi] = IntervalWindowInfo{Start: span.Start, End: span.End}
			}
			if req.Nodes {
				// Per-node time series: node -> one AVF per window, in
				// window order.
				wr.SeqAVF = make(map[string][]float64)
				for wi, res := range iw.Results {
					for node, avf := range res.SeqAVFByNode() {
						series, ok := wr.SeqAVF[node]
						if !ok {
							series = make([]float64, len(iw.Results))
							wr.SeqAVF[node] = series
						}
						series[wi] = avf
					}
				}
			}
			resp.Results[i] = wr
		}
		s.reg.Counter("server.interval_sweep_ok").Inc()
		return resp, d, nil
	}
	return j, nil
}
