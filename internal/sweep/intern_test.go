package sweep

import (
	"reflect"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/pavf"
)

// internedTable is a plan's set table with its per-vertex slots.
type internedTable struct {
	Sets     pavf.CSR
	Fwd, Bwd []int32
}

// contentIntern is Compile's set table built by content alone: every
// known side packs its term IDs into a key, and a key seen for the
// first time takes the next slot.
func contentIntern(res *core.Result) internedTable {
	n := len(res.Fwd)
	tab := internedTable{Sets: pavf.CSR{Off: []int32{0}}, Fwd: make([]int32, n), Bwd: make([]int32, n)}
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
		i := int32(tab.Sets.Len())
		index[string(key)] = i
		tab.Sets.IDs = append(tab.Sets.IDs, s.IDs()...)
		tab.Sets.Off = append(tab.Sets.Off, int32(len(tab.Sets.IDs)))
		return i
	}
	for v := range tab.Fwd {
		x := res.Expr(graph.VertexID(v))
		tab.Fwd[v] = intern(x.Fwd, x.KnownFwd)
		tab.Bwd[v] = intern(x.Bwd, x.KnownBwd)
	}
	return tab
}

// TestCompileInternMatchesContent: Compile's intern, which reuses a
// side's last slot when the next set on that side is equal, gives the
// set table, slot order and per-vertex slots that interning by content
// alone gives, on 200 seeded designs, and the Results the plan hands
// out render every vertex's equation as the solved result does.
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
		var tab internedTable
		tab.Sets, tab.Fwd, tab.Bwd = p.Table()
		if !reflect.DeepEqual(tab, want) {
			t.Fatalf("seed %d: identity intern gave %+v, content intern %+v", seed, tab, want)
		}

		got := make([]*core.Result, 1)
		if err := p.EvalBlockInto([]Workload{{Inputs: res.Inputs}}, nil, nil, got); err != nil {
			t.Fatalf("seed %d: EvalBlockInto: %v", seed, err)
		}
		for v := range res.Fwd {
			if g, w := got[0].Equation(graph.VertexID(v)), res.Equation(graph.VertexID(v)); g != w {
				t.Fatalf("seed %d vertex %d: plan's equation %q, solved %q", seed, v, g, w)
			}
		}
	}
}
