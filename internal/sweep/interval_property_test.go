package sweep

import (
	"context"
	"fmt"
	"math"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/stats"
)

// ulpClose reports whether a and b agree within k ulps at their
// magnitude — the tolerance for values that are the same sum
// reassociated, where each of the ~n non-negative additions contributes
// at most one rounding.
func ulpClose(a, b, k float64) bool {
	diff := math.Abs(a - b)
	if diff == 0 {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	ulp := math.Nextafter(scale, math.Inf(1)) - scale
	return diff <= k*ulp
}

// checkWindow fails unless window wi of an interval sweep run with
// nodes carries ref's chip AVF and node AVFs bit for bit, ref being the
// window's inputs re-evaluated through the closed forms.
func checkWindow(t *testing.T, ctxt string, iw IntervalResult, wi int, ref *core.Result) {
	t.Helper()
	if got, want := iw.Summary.ChipAVF[wi], ref.Summarize().WeightedSeqAVF; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: chip AVF %v != Summarize %v (must be bit-identical)", ctxt, got, want)
	}
	want := ref.SeqAVFByNode()
	if len(iw.SeqAVF) != len(want) {
		t.Fatalf("%s: %d node series for %d nodes", ctxt, len(iw.SeqAVF), len(want))
	}
	for node, avf := range want {
		series, ok := iw.SeqAVF[node]
		if !ok || len(series) != len(iw.Windows) {
			t.Fatalf("%s: node %s series %v, want one value per window", ctxt, node, series)
		}
		if math.Float64bits(series[wi]) != math.Float64bits(avf) {
			t.Fatalf("%s: node %s AVF %v != SeqAVFByNode %v (must be bit-identical)", ctxt, node, series[wi], avf)
		}
	}
}

// TestPropertyIntervalDifferential is the time-resolved differential
// property test: on 200 seeded random designs, a T-window interval
// sweep must
//
//  1. produce each window's chip AVF and node series bit-identical to
//     Summarize and SeqAVFByNode of Result.Reevaluate of that window's
//     inputs alone — at every block width, including one lane (1),
//     ragged (2, 3), wider than the lane count (16 > T), exactly T, and
//     T+7 — because windows are just lanes and every lane's summary
//     sink equals the closed forms bit for bit; and
//  2. satisfy the integration identity: the time-weighted mean of the
//     per-window chip AVFs equals the chip AVF of the time-weighted
//     mean AVF vector (WholeRunAVF), since Summarize is linear in the
//     AVF vector. The two differ only by float reassociation over
//     non-negative terms, so they must agree to a few thousand ulps.
func TestPropertyIntervalDifferential(t *testing.T) {
	const seeds = 200
	engines := make(map[int]*Engine)
	engine := func(width int) *Engine {
		if e, ok := engines[width]; ok {
			return e
		}
		e := newWidth(Options{Workers: 2, CacheSize: 2}, width)
		engines[width] = e
		return e
	}

	for seed := uint64(0); seed < seeds; seed++ {
		a, res, _ := solved(t, graphtest.Small(seed), seed^0x1eaf)
		nT := 3 + int(seed%6) // 3..8 windows
		rng := stats.New(seed ^ 0x717e)

		w := IntervalWorkload{Name: fmt.Sprintf("seed%d", seed)}
		cursor := uint64(0)
		for wi := 0; wi < nT; wi++ {
			if rng.Float64() < 0.3 {
				cursor += 1 + uint64(40*rng.Float64()) // interior gap
			}
			span := 50 + uint64(200*rng.Float64())
			w.Windows = append(w.Windows, WindowSpan{Start: cursor, End: cursor + span})
			w.Inputs = append(w.Inputs, randomInputs(a, seed*1009+uint64(wi)))
			cursor += span
		}

		// Reference: each window's inputs re-evaluated independently
		// through the closed forms.
		ref := make([]*core.Result, nT)
		for wi := 0; wi < nT; wi++ {
			ref[wi] = reevaluated(t, res, w.Inputs[wi])
		}

		var summary IntervalSummary
		for _, width := range []int{1, 2, 3, 16, nT, nT + 7} {
			b, err := engine(width).sweepIntervals(context.Background(), res, []IntervalWorkload{w}, true)
			if err != nil {
				t.Fatalf("seed %d width %d: sweepIntervals: %v", seed, width, err)
			}
			iw := b.Workloads[0]
			if len(iw.Summary.ChipAVF) != nT || b.WindowsEvaluated != nT {
				t.Fatalf("seed %d width %d: %d chip AVFs for %d windows", seed, width, len(iw.Summary.ChipAVF), nT)
			}
			for wi := 0; wi < nT; wi++ {
				checkWindow(t, fmt.Sprintf("seed %d width %d window %d", seed, width, wi), iw, wi, ref[wi])
			}
			summary = iw.Summary
		}

		// Integration identity on the (width-independent) results.
		whole := WholeRunAVF(w.Windows, ref)
		avg := *ref[0]
		avg.AVF = whole
		chipOfMean := avg.Summarize().WeightedSeqAVF
		if !ulpClose(summary.TimeWeightedMean, chipOfMean, 4096) {
			t.Fatalf("seed %d: time-weighted mean of window chip AVFs %v != chip AVF of whole-run vector %v (diff %v)",
				seed, summary.TimeWeightedMean, chipOfMean, summary.TimeWeightedMean-chipOfMean)
		}
		for wi, avf := range summary.ChipAVF {
			if !(avf >= 0 && avf <= 1) {
				t.Fatalf("seed %d window %d chip AVF %v out of [0,1]", seed, wi, avf)
			}
		}
	}
}
