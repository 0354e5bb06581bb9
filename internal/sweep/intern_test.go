package sweep

import (
	"reflect"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/pavf"
)

// contentIntern is Compile's set table built by content alone: every
// known side packs its term IDs into a key, and a key seen for the
// first time takes the next slot.
func contentIntern(res *core.Result) Raw {
	n := len(res.Fwd)
	raw := Raw{SetOff: []int32{0}, FwdIdx: make([]int32, n), BwdIdx: make([]int32, n)}
	index := make(map[string]int32)
	intern := func(s pavf.Set, known bool) int32 {
		if !known {
			return -1
		}
		var key []byte
		for _, id := range s.IDs() {
			key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		if i, ok := index[string(key)]; ok {
			return i
		}
		i := int32(len(raw.SetOff) - 1)
		index[string(key)] = i
		raw.SetIDs = append(raw.SetIDs, s.IDs()...)
		raw.SetOff = append(raw.SetOff, int32(len(raw.SetIDs)))
		return i
	}
	for v := range raw.FwdIdx {
		x := res.Expr(graph.VertexID(v))
		raw.FwdIdx[v] = intern(x.Fwd, x.KnownFwd)
		raw.BwdIdx[v] = intern(x.Bwd, x.KnownBwd)
	}
	return raw
}

// TestCompileInternMatchesContent: Compile's intern, which reuses a
// side's last slot when the next set on that side is equal, gives the
// set table, slot order and per-vertex slots that interning by content
// alone gives, on 200 seeded designs, and the Results a plan restored
// from that table hands out render every vertex's equation as the
// solved result does.
func TestCompileInternMatchesContent(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		d, err := graphtest.Generate(graphtest.Small(seed))
		if err != nil {
			t.Fatalf("seed %d: Generate: %v", seed, err)
		}
		a, err := core.NewAnalyzer(d.Graph, core.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: NewAnalyzer: %v", seed, err)
		}
		res, err := a.Solve(randomInputs(a, seed))
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		p, err := Compile(res)
		if err != nil {
			t.Fatalf("seed %d: Compile: %v", seed, err)
		}
		want := contentIntern(res)
		if got := p.Raw(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: identity intern gave %+v, content intern %+v", seed, got, want)
		}

		rp, err := Restore(a, p.Raw(), res.Visited)
		if err != nil {
			t.Fatalf("seed %d: Restore: %v", seed, err)
		}
		got := make([]*core.Result, 1)
		if err := rp.EvalBlockInto([]Workload{{Inputs: res.Inputs}}, nil, nil, got); err != nil {
			t.Fatalf("seed %d: EvalBlockInto: %v", seed, err)
		}
		for v := range res.Fwd {
			if g, w := got[0].Equation(graph.VertexID(v)), res.Equation(graph.VertexID(v)); g != w {
				t.Fatalf("seed %d vertex %d: restored plan's equation %q, solved %q", seed, v, g, w)
			}
		}
	}
}
