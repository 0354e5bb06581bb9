package sweep

// Time-resolved (interval) sweeps: a workload measured over T time
// windows is evaluated as T lanes of one batch sharing a single
// compiled plan. The windows ride the existing blocked kernel — each
// window's inputs are one more lane in the EnvMatrix — so a T-window
// sweep costs one plan compile plus T lane evaluations. The lanes feed
// the summary sink: each window reduces straight to its chip AVF (and,
// when asked, its node map), bit-identical to Summarize and
// SeqAVFByNode of Result.Reevaluate under that window's inputs, and no
// per-window Result or per-vertex vector is built.

import (
	"context"
	"fmt"
	"time"

	"seqavf/internal/core"
	"seqavf/internal/pavfio"
)

// WindowSpan is a half-open cycle range [Start, End).
type WindowSpan struct {
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
}

// Span returns the window length in cycles.
func (w WindowSpan) Span() uint64 { return w.End - w.Start }

// IntervalWorkload is one workload's time-resolved measurements: the
// window geometry and one pAVF input table per window (index-aligned).
type IntervalWorkload struct {
	Name    string
	Windows []WindowSpan
	Inputs  []*core.Inputs
}

// NewIntervalWorkload returns the interval workload named name whose
// windows and per-window inputs are tab's.
func NewIntervalWorkload(name string, tab *pavfio.IntervalTable) IntervalWorkload {
	n := len(tab.Windows)
	w := IntervalWorkload{Name: name, Windows: make([]WindowSpan, n), Inputs: make([]*core.Inputs, n)}
	for i, win := range tab.Windows {
		w.Windows[i] = WindowSpan{Start: win.Start, End: win.End}
		w.Inputs[i] = win.Inputs
	}
	return w
}

// validate checks the window geometry the rest of the pipeline assumes:
// at least one window, inputs aligned with windows, every span
// non-empty, windows ordered and non-overlapping.
func (w *IntervalWorkload) validate() error {
	if len(w.Windows) == 0 {
		return fmt.Errorf("sweep: interval workload %q has no windows", w.Name)
	}
	if len(w.Inputs) != len(w.Windows) {
		return fmt.Errorf("sweep: interval workload %q has %d input tables for %d windows",
			w.Name, len(w.Inputs), len(w.Windows))
	}
	for i, win := range w.Windows {
		if win.Start >= win.End {
			return fmt.Errorf("sweep: interval workload %q window %d span [%d,%d) is empty",
				w.Name, i, win.Start, win.End)
		}
		if i > 0 && win.Start < w.Windows[i-1].End {
			return fmt.Errorf("sweep: interval workload %q window %d starts at %d, inside window %d",
				w.Name, i, win.Start, i-1)
		}
		if w.Inputs[i] == nil {
			return fmt.Errorf("sweep: interval workload %q window %d has nil inputs", w.Name, i)
		}
	}
	return nil
}

// IntervalSummary aggregates a workload's AVF time series: the
// per-window chip AVF (the design-wide weighted sequential AVF), its
// time-weighted mean, and where and how sharply it peaks. PeakToMean is
// the paper-style "peak/average" vulnerability ratio — a run with phase
// behavior shows a ratio well above 1, which a whole-run average hides.
type IntervalSummary struct {
	// ChipAVF[w] is window w's design-wide weighted sequential AVF.
	ChipAVF []float64
	// TimeWeightedMean weights each window by its cycle span; it equals
	// the whole-run chip AVF of the time-weighted-mean input (the
	// identity the differential tests pin).
	TimeWeightedMean float64
	PeakWindow       int
	PeakChipAVF      float64
	// PeakToMean is PeakChipAVF / TimeWeightedMean (0 when the mean is 0).
	PeakToMean float64
}

// IntervalResult is one workload's time-resolved sweep outcome: the
// window geometry and the summarized time series, plus (when the sweep
// asked for nodes) each sequential node's AVF series, index-aligned
// with Windows.
type IntervalResult struct {
	Name    string
	Windows []WindowSpan
	Summary IntervalSummary
	SeqAVF  map[string][]float64
}

// IntervalBatch is the outcome of one interval sweep.
type IntervalBatch struct {
	Plan      *Plan
	Workloads []IntervalResult
	// WindowsEvaluated counts lanes across all workloads.
	WindowsEvaluated int
	Elapsed          time.Duration
}

// SweepIntervals evaluates every workload's windows through res's
// compiled plan. See SweepIntervalsContext.
func (e *Engine) SweepIntervals(res *core.Result, workloads []IntervalWorkload) (*IntervalBatch, error) {
	return e.SweepIntervalsContext(context.Background(), res, workloads)
}

// SweepIntervalsContext flattens the workloads' windows into lanes of
// one batch — window w of workload k becomes lane "name#w" — runs them
// through the summary sink (one shared plan, blocked kernel, worker
// pool, cancellation), then reshapes the lane summaries back
// window-major per workload and summarizes each time series.
func (e *Engine) SweepIntervalsContext(ctx context.Context, res *core.Result, workloads []IntervalWorkload) (*IntervalBatch, error) {
	return e.sweepIntervals(ctx, res, workloads, false)
}

// sweepIntervals is SweepIntervalsContext; with nodes it also
// transposes the lanes' node maps into per-node series.
func (e *Engine) sweepIntervals(ctx context.Context, res *core.Result, workloads []IntervalWorkload, nodes bool) (*IntervalBatch, error) {
	if len(workloads) == 0 {
		return nil, fmt.Errorf("sweep: no interval workloads")
	}
	total := 0
	for i := range workloads {
		if err := workloads[i].validate(); err != nil {
			return nil, err
		}
		total += len(workloads[i].Windows)
	}
	lanes := make([]Workload, 0, total)
	for i := range workloads {
		w := &workloads[i]
		for wi, in := range w.Inputs {
			lanes = append(lanes, Workload{Name: fmt.Sprintf("%s#%d", w.Name, wi), Inputs: in})
		}
	}
	batch, err := e.SweepSummariesContext(ctx, res, lanes, nodes)
	if err != nil {
		return nil, err
	}
	out := &IntervalBatch{
		Plan:             batch.Plan,
		Workloads:        make([]IntervalResult, len(workloads)),
		WindowsEvaluated: total,
		Elapsed:          batch.Elapsed,
	}
	lane := 0
	for i := range workloads {
		w := &workloads[i]
		end := lane + len(w.Windows)
		out.Workloads[i] = IntervalResult{
			Name:    w.Name,
			Windows: w.Windows,
			Summary: summarizeIntervals(w.Windows, batch.Summaries[lane:end]),
		}
		if nodes {
			out.Workloads[i].SeqAVF = nodeSeries(batch.Nodes[lane:end])
		}
		lane = end
	}
	e.opts.Obs.Counter("sweep.windows_evaluated").Add(int64(total))
	e.opts.Obs.Counter("sweep.interval_batches").Inc()
	return out, nil
}

// nodeSeries transposes a window-major series of node maps into one AVF
// series per node, index-aligned with the windows.
func nodeSeries(windows []map[string]float64) map[string][]float64 {
	series := make(map[string][]float64)
	for wi, m := range windows {
		for node, avf := range m {
			s, ok := series[node]
			if !ok {
				s = make([]float64, len(windows))
				series[node] = s
			}
			s[wi] = avf
		}
	}
	return series
}

// summarizeIntervals reduces a window-major series of the batch's
// reduced summaries to its chip AVF time series and peak statistics.
func summarizeIntervals(spans []WindowSpan, sums []core.Summary) IntervalSummary {
	s := IntervalSummary{ChipAVF: make([]float64, len(sums))}
	var weighted, cycles float64
	for w, sum := range sums {
		avf := sum.WeightedSeqAVF
		s.ChipAVF[w] = avf
		span := float64(spans[w].Span())
		weighted += avf * span
		cycles += span
		if avf > s.PeakChipAVF || w == 0 {
			s.PeakChipAVF = avf
			s.PeakWindow = w
		}
	}
	if cycles > 0 {
		s.TimeWeightedMean = weighted / cycles
	}
	if s.TimeWeightedMean > 0 {
		s.PeakToMean = s.PeakChipAVF / s.TimeWeightedMean
	}
	return s
}

// WholeRunAVF integrates a window-major result series back to the
// whole-run per-vertex AVF vector: the time-weighted mean of the
// per-window AVF vectors. Because Result.Summarize is linear in the AVF
// vector, the chip AVF of this vector equals the time-weighted mean of
// the per-window chip AVFs (up to float reassociation) — the identity
// the differential property test verifies.
func WholeRunAVF(spans []WindowSpan, results []*core.Result) []float64 {
	if len(results) == 0 {
		return nil
	}
	out := make([]float64, len(results[0].AVF))
	var cycles float64
	for w, r := range results {
		span := float64(spans[w].Span())
		cycles += span
		for v, a := range r.AVF {
			out[v] += a * span
		}
	}
	if cycles > 0 {
		for v := range out {
			out[v] /= cycles
		}
	}
	return out
}
