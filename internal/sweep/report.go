package sweep

// The sweep reports: the JSON documents sweeprun prints and seqavfd's
// POST /v1/sweep and POST /v1/sweep/intervals return. Both run on the
// summary sink, so a report never holds a per-vertex AVF vector.

import (
	"context"

	"seqavf/internal/core"
)

// SweepResponse is the whole-run sweep report: plan statistics plus
// per-workload design summaries, index-aligned with the submitted
// workloads.
type SweepResponse struct {
	Design    string           `json:"design"`
	Workloads int              `json:"workloads"`
	Plan      Stats            `json:"plan"`
	ElapsedMS float64          `json:"eval_elapsed_ms"`
	PerSec    float64          `json:"workloads_per_sec"`
	Results   []WorkloadResult `json:"results"`
}

// WorkloadResult is one workload's scores.
type WorkloadResult struct {
	Name    string             `json:"name"`
	Summary core.Summary       `json:"summary"`
	SeqAVF  map[string]float64 `json:"seqavf,omitempty"`
}

// IntervalSweepResponse is the time-resolved sweep report: plan
// statistics plus per-workload AVF time series, index-aligned with the
// submitted workloads.
type IntervalSweepResponse struct {
	Design           string                   `json:"design"`
	Workloads        int                      `json:"workloads"`
	WindowsEvaluated int                      `json:"windows_evaluated"`
	Plan             Stats                    `json:"plan"`
	ElapsedMS        float64                  `json:"eval_elapsed_ms"`
	Results          []IntervalWorkloadResult `json:"results"`
}

// IntervalWorkloadResult is one workload's AVF time series: the window
// geometry, the per-window chip AVF, its peak statistics, and (with
// nodes) the per-sequential-node series, each value index-aligned with
// Windows.
type IntervalWorkloadResult struct {
	Name             string               `json:"name"`
	Windows          []WindowSpan         `json:"windows"`
	ChipAVF          []float64            `json:"chip_avf"`
	TimeWeightedMean float64              `json:"time_weighted_mean"`
	PeakWindow       int                  `json:"peak_window"`
	PeakChipAVF      float64              `json:"peak_chip_avf"`
	PeakToMean       float64              `json:"peak_to_mean"`
	SeqAVF           map[string][]float64 `json:"seqavf,omitempty"`
}

// Report sweeps workloads through res's plan on the summary sink and
// returns the whole-run report for the design named design; nodes adds
// each workload's per-sequential-node seqAVFs.
func (e *Engine) Report(ctx context.Context, res *core.Result, design string, workloads []Workload, nodes bool) (*SweepResponse, error) {
	batch, err := e.SweepSummariesContext(ctx, res, workloads, nodes)
	if err != nil {
		return nil, err
	}
	rep := &SweepResponse{
		Design:    design,
		Workloads: len(batch.Names),
		Plan:      batch.Plan.Stats(),
		ElapsedMS: float64(batch.Elapsed.Microseconds()) / 1e3,
		PerSec:    batch.WorkloadsPerSec(),
		Results:   make([]WorkloadResult, len(batch.Names)),
	}
	for i, name := range batch.Names {
		rep.Results[i] = WorkloadResult{Name: name, Summary: batch.Summaries[i]}
		if nodes {
			rep.Results[i].SeqAVF = batch.Nodes[i]
		}
	}
	return rep, nil
}

// ReportIntervals sweeps every window of every workload as one lane of
// a single batch on the summary sink and returns the time-resolved
// report for the design named design; nodes adds each workload's
// per-sequential-node AVF series.
func (e *Engine) ReportIntervals(ctx context.Context, res *core.Result, design string, workloads []IntervalWorkload, nodes bool) (*IntervalSweepResponse, error) {
	batch, err := e.sweepIntervals(ctx, res, workloads, nodes)
	if err != nil {
		return nil, err
	}
	rep := &IntervalSweepResponse{
		Design:           design,
		Workloads:        len(batch.Workloads),
		WindowsEvaluated: batch.WindowsEvaluated,
		Plan:             batch.Plan.Stats(),
		ElapsedMS:        float64(batch.Elapsed.Microseconds()) / 1e3,
		Results:          make([]IntervalWorkloadResult, len(batch.Workloads)),
	}
	for i, iw := range batch.Workloads {
		rep.Results[i] = IntervalWorkloadResult{
			Name:             iw.Name,
			Windows:          iw.Windows,
			ChipAVF:          iw.Summary.ChipAVF,
			TimeWeightedMean: iw.Summary.TimeWeightedMean,
			PeakWindow:       iw.Summary.PeakWindow,
			PeakChipAVF:      iw.Summary.PeakChipAVF,
			PeakToMean:       iw.Summary.PeakToMean,
			SeqAVF:           iw.SeqAVF,
		}
	}
	return rep, nil
}
