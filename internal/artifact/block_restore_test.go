package artifact

import (
	"math"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/sweep"
)

// TestRestoredPlanBlockBitIdentity: the plan Decode returns must drive
// the blocked kernel exactly like the plan compiled from the original
// result — Decode compiles the decoded set table, which rebuilds the
// same pair-dedup and run-length broadcast tables, so the warm-start
// path gets the SoA kernel with no arithmetic drift. Checked over seeded designs, against both the
// fresh plan's EvalBlockInto and Result.Reevaluate, bit for bit.
func TestRestoredPlanBlockBitIdentity(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		a1, res, in := buildSolved(t, seed, seed^0xc0ffee)
		fresh, err := sweep.Compile(res)
		if err != nil {
			t.Fatalf("seed %d: Compile: %v", seed, err)
		}
		data, err := Encode(res)
		if err != nil {
			t.Fatalf("seed %d: Encode: %v", seed, err)
		}
		// Decode against a fresh analyzer, as a restarted daemon would.
		a2 := freshAnalyzer(t, seed)
		_, restored, err := Decode(data, a2)
		if err != nil {
			t.Fatalf("seed %d: Decode: %v", seed, err)
		}

		// A ragged 3-workload block through both plans (block width would
		// be 4+ in the engine; EvalBlockInto takes whatever slice it gets).
		ws := []sweep.Workload{
			{Name: "w0", Inputs: in},
			{Name: "w1", Inputs: seededInputs(a1, seed^0xabad1dea)},
			{Name: "w2", Inputs: seededInputs(a1, seed*131+7)},
		}
		fromFresh := make([]*core.Result, len(ws))
		if err := fresh.EvalBlockInto(ws, nil, nil, fromFresh); err != nil {
			t.Fatalf("seed %d: fresh EvalBlockInto: %v", seed, err)
		}
		fromRestored := make([]*core.Result, len(ws))
		if err := restored.EvalBlockInto(ws, nil, nil, fromRestored); err != nil {
			t.Fatalf("seed %d: restored EvalBlockInto: %v", seed, err)
		}
		for i, w := range ws {
			ref := &core.Result{Analyzer: a1, Sets: res.Sets, Fwd: res.Fwd, Bwd: res.Bwd, AVF: make([]float64, len(res.AVF))}
			if err := ref.Reevaluate(w.Inputs); err != nil {
				t.Fatalf("seed %d: Reevaluate(%s): %v", seed, w.Name, err)
			}
			for v := range ref.AVF {
				rb := math.Float64bits(fromRestored[i].AVF[v])
				fb := math.Float64bits(fromFresh[i].AVF[v])
				sb := math.Float64bits(ref.AVF[v])
				if rb != fb || rb != sb {
					t.Fatalf("seed %d workload %s vertex %d: restored-block %v, fresh-block %v, reevaluate %v",
						seed, w.Name, v, fromRestored[i].AVF[v], fromFresh[i].AVF[v], ref.AVF[v])
				}
			}
		}
	}
}
