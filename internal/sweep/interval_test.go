package sweep

import (
	"strings"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/obs"
)

// intervalFixture builds a T-window interval workload over a generated
// design with seeded per-window inputs and contiguous equal spans.
func intervalFixture(t testing.TB, seed uint64, windows int, span uint64) (*core.Result, IntervalWorkload) {
	t.Helper()
	a, res, _ := solved(t, graphtest.Small(seed), seed^0x5eed)
	w := IntervalWorkload{Name: "w"}
	for i := 0; i < windows; i++ {
		w.Windows = append(w.Windows, WindowSpan{Start: uint64(i) * span, End: uint64(i+1) * span})
		w.Inputs = append(w.Inputs, randomInputs(a, seed*997+uint64(i)))
	}
	return res, w
}

func TestSweepIntervalsValidation(t *testing.T) {
	res, good := intervalFixture(t, 1, 3, 100)
	eng := New(Options{Workers: 1})
	cases := []struct {
		name    string
		mutate  func(w *IntervalWorkload)
		wantErr string
	}{
		{"noWindows", func(w *IntervalWorkload) { w.Windows = nil; w.Inputs = nil }, "has no windows"},
		{"misaligned", func(w *IntervalWorkload) { w.Inputs = w.Inputs[:2] }, "input tables for"},
		{"emptySpan", func(w *IntervalWorkload) { w.Windows[1].End = w.Windows[1].Start }, "is empty"},
		{"overlap", func(w *IntervalWorkload) { w.Windows[1].Start = 50 }, "inside window"},
		{"nilInputs", func(w *IntervalWorkload) { w.Inputs[2] = nil }, "nil inputs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := good
			w.Windows = append([]WindowSpan(nil), good.Windows...)
			w.Inputs = append([]*core.Inputs(nil), good.Inputs...)
			tc.mutate(&w)
			_, err := eng.SweepIntervals(res, []IntervalWorkload{w})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
	if _, err := eng.SweepIntervals(res, nil); err == nil {
		t.Fatal("empty workload list accepted")
	}
}

func TestSweepIntervalsShapeAndCounters(t *testing.T) {
	reg := obs.New()
	res, w := intervalFixture(t, 2, 5, 200)
	eng := newWidth(Options{Workers: 2, Obs: reg}, 2)
	b, err := eng.SweepIntervals(res, []IntervalWorkload{w, w})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != 2 || b.WindowsEvaluated != 10 {
		t.Fatalf("batch shape: %d workloads, %d windows", len(b.Workloads), b.WindowsEvaluated)
	}
	for _, iw := range b.Workloads {
		if len(iw.Windows) != 5 || len(iw.Summary.ChipAVF) != 5 {
			t.Fatalf("workload shape: %d windows, %d chip AVFs", len(iw.Windows), len(iw.Summary.ChipAVF))
		}
		if iw.SeqAVF != nil {
			t.Fatalf("node series without nodes: %d entries", len(iw.SeqAVF))
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sweep.windows_evaluated"]; got != 10 {
		t.Fatalf("sweep.windows_evaluated = %d", got)
	}
	if got := snap.Counters["sweep.interval_batches"]; got != 1 {
		t.Fatalf("sweep.interval_batches = %d", got)
	}
}

func TestIntervalSummaryStats(t *testing.T) {
	res, w := intervalFixture(t, 3, 4, 100)
	// Stretch window 2 so the time weighting is non-uniform.
	w.Windows[2].End = w.Windows[2].Start + 300
	w.Windows[3] = WindowSpan{Start: w.Windows[2].End, End: w.Windows[2].End + 100}
	eng := New(Options{Workers: 1})
	b, err := eng.SweepIntervals(res, []IntervalWorkload{w})
	if err != nil {
		t.Fatal(err)
	}
	s := b.Workloads[0].Summary
	var weighted, cycles float64
	peak, peakW := s.ChipAVF[0], 0
	for wi, avf := range s.ChipAVF {
		span := float64(w.Windows[wi].Span())
		weighted += avf * span
		cycles += span
		if avf > peak {
			peak, peakW = avf, wi
		}
	}
	if s.TimeWeightedMean != weighted/cycles {
		t.Fatalf("mean = %v, want %v", s.TimeWeightedMean, weighted/cycles)
	}
	if s.PeakWindow != peakW || s.PeakChipAVF != peak {
		t.Fatalf("peak = (%d, %v), want (%d, %v)", s.PeakWindow, s.PeakChipAVF, peakW, peak)
	}
	if s.TimeWeightedMean > 0 && s.PeakToMean != peak/s.TimeWeightedMean {
		t.Fatalf("peak/mean = %v", s.PeakToMean)
	}
	if s.PeakToMean < 1 {
		t.Fatalf("peak/mean %v < 1: peak cannot be below the mean", s.PeakToMean)
	}
}

func TestWholeRunAVFEdges(t *testing.T) {
	if got := WholeRunAVF(nil, nil); got != nil {
		t.Fatalf("empty series = %v", got)
	}
	res, w := intervalFixture(t, 4, 2, 100)
	ref := []*core.Result{reevaluated(t, res, w.Inputs[0]), reevaluated(t, res, w.Inputs[1])}
	whole := WholeRunAVF(w.Windows, ref)
	if len(whole) != len(ref[0].AVF) {
		t.Fatalf("whole-run vector length %d", len(whole))
	}
	// Equal spans: the mean of two windows lies between them, bit by bit.
	for v := range whole {
		lo, hi := ref[0].AVF[v], ref[1].AVF[v]
		if lo > hi {
			lo, hi = hi, lo
		}
		if whole[v] < lo-1e-15 || whole[v] > hi+1e-15 {
			t.Fatalf("vertex %d: mean %v outside [%v,%v]", v, whole[v], lo, hi)
		}
	}
}

// TestIntervalSweepRunsOnSummarySink: an interval sweep's lanes reduce
// through the summary sink — its sweep.eval span says output=summary and
// sweep.workloads_reduced grows by one per window.
func TestIntervalSweepRunsOnSummarySink(t *testing.T) {
	reg := obs.New()
	res, w := intervalFixture(t, 5, 6, 100)
	eng := newWidth(Options{Workers: 1, Obs: reg}, 4)
	if _, err := eng.SweepIntervals(res, []IntervalWorkload{w}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SweepIntervals(res, []IntervalWorkload{w, w}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var outputs []string
	for _, sp := range snap.Spans {
		if sp.Name == "sweep.eval" {
			out, _ := sp.Attrs["output"].(string)
			outputs = append(outputs, out)
		}
	}
	if got := strings.Join(outputs, " "); got != "summary summary" {
		t.Fatalf("sweep.eval outputs %q, want %q", got, "summary summary")
	}
	if got := snap.Counters["sweep.workloads_reduced"]; got != 3*6 {
		t.Fatalf("sweep.workloads_reduced = %d, want %d", got, 3*6)
	}
}
