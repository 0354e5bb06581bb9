package sweep

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph/graphtest"
)

// summaryWidths are the lane widths the summary-sink harness sweeps:
// the width-1 kernel, a small odd width, the default, and one past it
// (so most batches end in a ragged block).
var summaryWidths = []int{1, 3, 16, 17}

// checkReduced fails unless the reduced summary and node map equal the
// materialized reference's Summarize and SeqAVFByNode exactly.
func checkReduced(t *testing.T, ctxt string, sum core.Summary, nodes map[string]float64, ref *core.Result) {
	t.Helper()
	if want := ref.Summarize(); sum != want {
		t.Fatalf("%s: reduced summary %+v, Summarize %+v", ctxt, sum, want)
	}
	if nodes == nil {
		return
	}
	if want := ref.SeqAVFByNode(); !maps.Equal(nodes, want) {
		t.Fatalf("%s: reduced node map differs from SeqAVFByNode (%d vs %d keys)", ctxt, len(nodes), len(want))
	}
}

// TestPropertySummarySinkEquality is the summary sink's bit contract on
// 200 seeded random designs: for every lane width, ragged tails
// included, the summaries and node maps reduced straight from the
// kernel's pair values must equal Summarize and SeqAVFByNode of
// Result.Reevaluate's per-workload result — through the engine and
// block by block through the compiled plan. The materializing sweep's
// Batch.Summaries must agree too.
func TestPropertySummarySinkEquality(t *testing.T) {
	const seeds = 200
	engines := make(map[int]*Engine, len(summaryWidths))
	for _, w := range summaryWidths {
		engines[w] = newWidth(Options{Workers: 2, CacheSize: 4}, w)
	}
	for seed := uint64(0); seed < seeds; seed++ {
		_, res, _ := solved(t, graphtest.Small(seed), seed^0x5a5a)
		p, err := Compile(res)
		if err != nil {
			t.Fatalf("seed %d: Compile: %v", seed, err)
		}
		n := int(seed % 37) // 0..36: empty, sub-block, and multi-block batches
		ws := make([]Workload, n)
		refs := make([]*core.Result, n)
		for i := range ws {
			ws[i] = Workload{Name: fmt.Sprintf("w%02d", i), Inputs: randomInputs(res.Analyzer, seed*131+uint64(i))}
			refs[i] = reevaluated(t, res, ws[i].Inputs)
		}
		for _, width := range summaryWidths {
			batch, err := engines[width].SweepSummariesContext(context.Background(), res, ws, true)
			if err != nil {
				t.Fatalf("seed %d width %d: SweepSummariesContext: %v", seed, width, err)
			}
			if batch.Results != nil || len(batch.Summaries) != n || len(batch.Nodes) != n {
				t.Fatalf("seed %d width %d: summary batch shape %d results / %d summaries / %d node maps",
					seed, width, len(batch.Results), len(batch.Summaries), len(batch.Nodes))
			}
			for i := range ws {
				checkReduced(t, fmt.Sprintf("seed %d width %d engine %s", seed, width, ws[i].Name),
					batch.Summaries[i], batch.Nodes[i], refs[i])
			}

			vb, err := engines[width].Sweep(res, ws)
			if err != nil {
				t.Fatalf("seed %d width %d: Sweep: %v", seed, width, err)
			}
			for i := range ws {
				checkReduced(t, fmt.Sprintf("seed %d width %d vectors %s", seed, width, ws[i].Name),
					vb.Summaries[i], nil, refs[i])
			}

			var m EnvMatrix
			scratch := make([]float64, p.ScratchLen(width))
			for lo := 0; lo < n; lo += width {
				hi := min(lo+width, n)
				sums := make([]core.Summary, hi-lo)
				nodes := make([]map[string]float64, hi-lo)
				if err := p.evalBlock(ws[lo:hi], &m, scratch, nil, sums, nodes); err != nil {
					t.Fatalf("seed %d width %d: evalBlock: %v", seed, width, err)
				}
				for i := lo; i < hi; i++ {
					checkReduced(t, fmt.Sprintf("seed %d width %d blocks %s", seed, width, ws[i].Name),
						sums[i-lo], nodes[i-lo], refs[i])
				}
			}
		}
	}
}
