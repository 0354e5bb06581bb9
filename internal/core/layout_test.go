package core

import (
	"maps"
	"testing"

	"seqavf/internal/graph/graphtest"
	"seqavf/internal/netlist"
	"seqavf/internal/stats"
)

// vertexLoopStats is the per-vertex statistics loop the SummaryLayout
// replaces, kept as the oracle: one pass over all vertices in ID order,
// accumulating straight into per-FUB and per-"fub/node" sums.
func vertexLoopStats(r *Result) ([]FubStat, Summary, map[string]float64) {
	a := r.Analyzer
	fubs := make([]FubStat, len(a.G.FubNames))
	for i, name := range a.G.FubNames {
		fubs[i].Fub = name
	}
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for v := 0; v < a.G.NumVerts(); v++ {
		vx := &a.G.Verts[v]
		role := a.roles[v]
		avf := r.AVF[v]
		if vx.Node.Kind == netlist.KindSeq && role != RoleDebug {
			key := a.G.FubNames[vx.Fub] + "/" + vx.Node.Name
			sums[key] += avf
			counts[key]++
		}
		if role == RoleDebug || role == RoleConst {
			continue
		}
		st := &fubs[vx.Fub]
		st.NodeBits++
		st.AvgNodeAVF += avf
		if vx.Node.Kind == netlist.KindSeq {
			st.SeqBits++
			st.AvgSeqAVF += avf
			if role == RoleLoop {
				st.LoopSeqBits++
			}
			if role == RoleControl {
				st.CtrlBits++
			}
		}
	}
	for k := range sums {
		sums[k] /= float64(counts[k])
	}
	var s Summary
	var seqSum, nodeSum float64
	for i := range fubs {
		fs := &fubs[i]
		if fs.SeqBits > 0 {
			fs.AvgSeqAVF /= float64(fs.SeqBits)
		}
		if fs.NodeBits > 0 {
			fs.AvgNodeAVF /= float64(fs.NodeBits)
		}
		s.SeqBits += fs.SeqBits
		s.NodeBits += fs.NodeBits
		s.LoopSeqBits += fs.LoopSeqBits
		s.CtrlBits += fs.CtrlBits
		seqSum += fs.AvgSeqAVF * float64(fs.SeqBits)
		nodeSum += fs.AvgNodeAVF * float64(fs.NodeBits)
	}
	if s.SeqBits > 0 {
		s.WeightedSeqAVF = seqSum / float64(s.SeqBits)
		s.LoopSeqFraction = float64(s.LoopSeqBits) / float64(s.SeqBits)
	}
	if s.NodeBits > 0 {
		s.WeightedNodeAVF = nodeSum / float64(s.NodeBits)
	}
	total, vis := 0, 0
	for v, ok := range r.Visited {
		if a.roles[v] != RoleDebug {
			total++
			if ok {
				vis++
			}
		}
	}
	if total > 0 {
		s.VisitedFraction = float64(vis) / float64(total)
	}
	s.Iterations = r.Iterations
	s.Converged = r.Converged
	return fubs, s, sums
}

// TestSummaryLayoutMatchesVertexLoop: on 200 seeded random designs,
// FubStats, Summarize and SeqAVFByNode — all reductions through the
// analyzer's SummaryLayout — equal the per-vertex loop exactly, both on
// solved AVFs and on arbitrary per-vertex values (which make every
// summation order visible in the low bits). A remapped layout over a
// permuted value table reduces to the same numbers.
func TestSummaryLayoutMatchesVertexLoop(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		d, err := graphtest.Generate(graphtest.Small(seed))
		if err != nil {
			t.Fatalf("seed %d: Generate: %v", seed, err)
		}
		a, err := NewAnalyzer(d.Graph, DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: NewAnalyzer: %v", seed, err)
		}
		r, err := a.Solve(randPortInputs(a, seed))
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		rng := stats.New(seed ^ 0x1a7)
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				for v := range r.AVF {
					r.AVF[v] = rng.Float64()
				}
			}
			wantFubs, wantSum, wantNodes := vertexLoopStats(r)
			gotFubs := r.FubStats()
			if len(gotFubs) != len(wantFubs) {
				t.Fatalf("seed %d: %d FUB stats, want %d", seed, len(gotFubs), len(wantFubs))
			}
			for i := range gotFubs {
				if gotFubs[i] != wantFubs[i] {
					t.Fatalf("seed %d pass %d: FubStats[%d] = %+v, want %+v", seed, pass, i, gotFubs[i], wantFubs[i])
				}
			}
			if got := r.Summarize(); got != wantSum {
				t.Fatalf("seed %d pass %d: Summarize = %+v, want %+v", seed, pass, got, wantSum)
			}
			if got := r.SeqAVFByNode(); !maps.Equal(got, wantNodes) {
				t.Fatalf("seed %d pass %d: SeqAVFByNode differs from the vertex loop", seed, pass)
			}

			// Reversed value table: slot n-1-v holds vertex v's value.
			n := len(r.AVF)
			slot := make([]int32, n)
			rev := make([]float64, n)
			for v := range slot {
				slot[v] = int32(n - 1 - v)
				rev[n-1-v] = r.AVF[v]
			}
			l := a.SummaryLayout().Remap(slot)
			var s [1]Summary
			var m [1]map[string]float64
			l.Summaries(rev, s[:])
			l.NodeAVFs(rev, m[:])
			s[0].VisitedFraction, s[0].Iterations, s[0].Converged = wantSum.VisitedFraction, r.Iterations, r.Converged
			if s[0] != wantSum || !maps.Equal(m[0], wantNodes) {
				t.Fatalf("seed %d pass %d: remapped layout reduces differently", seed, pass)
			}
		}
	}
}
