package sweep

import (
	"maps"
	"math"
	"sort"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/pavf"
)

// FuzzCompilePlan drives the generator -> solver -> plan compiler ->
// blocked kernel chain from fuzzed seeds and shape knobs: no input may
// panic, every generated design must compile into a plan, one- and
// two-lane evaluation must stay bit-identical to Result.Reevaluate, and
// the summary sink's reduction must equal Summarize and SeqAVFByNode of
// the re-evaluated results bit for bit.
func FuzzCompilePlan(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint8(2), uint8(2), uint8(2))
	f.Add(uint64(42), uint64(7), uint8(1), uint8(1), uint8(1))
	f.Add(uint64(12345), uint64(99), uint8(3), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, seed, inputSeed uint64, fubs, layers, width uint8) {
		cfg := graphtest.Small(seed)
		cfg.Fubs = 1 + int(fubs%3)
		cfg.Layers = 1 + int(layers%4)
		cfg.Width = 1 + int(width%4)
		d, err := graphtest.Generate(cfg)
		if err != nil {
			t.Fatalf("Generate rejected a bounded config %+v: %v", cfg, err)
		}
		a, err := core.NewAnalyzer(d.Graph, core.DefaultOptions())
		if err != nil {
			t.Fatalf("NewAnalyzer: %v", err)
		}
		in := randomInputs(a, inputSeed)
		res, err := a.Solve(in)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		p, err := Compile(res)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		if p.NumVerts() != a.G.NumVerts() {
			t.Fatalf("plan covers %d of %d vertices", p.NumVerts(), a.G.NumVerts())
		}
		in2 := randomInputs(a, inputSeed^0x5bf03635)
		ws := []Workload{{Name: "in2", Inputs: in2}, {Name: "in", Inputs: in}}
		refs := []*core.Result{reevaluated(t, res, in2), reevaluated(t, res, in)}
		// One lane on its own, then both lanes in one block.
		for _, lanes := range []int{1, 2} {
			got := make([]*core.Result, lanes)
			if err := p.EvalBlockInto(ws[:lanes], nil, nil, got); err != nil {
				t.Fatalf("%d-lane EvalBlockInto: %v", lanes, err)
			}
			for i, r := range got {
				for v, avf := range r.AVF {
					if math.Float64bits(avf) != math.Float64bits(refs[i].AVF[v]) {
						t.Fatalf("%d lanes, lane %d vertex %d: plan %v != reevaluate %v", lanes, i, v, avf, refs[i].AVF[v])
					}
					if !(avf >= 0 && avf <= 1) {
						t.Fatalf("%d lanes, lane %d vertex %d: AVF %v out of [0,1]", lanes, i, v, avf)
					}
				}
			}
		}
		sums := make([]core.Summary, len(ws))
		nodes := make([]map[string]float64, len(ws))
		if err := p.evalBlock(ws, nil, nil, nil, sums, nodes); err != nil {
			t.Fatalf("summary sink: %v", err)
		}
		for i, r := range refs {
			if want := r.Summarize(); sums[i] != want {
				t.Fatalf("lane %d: reduced summary %+v != Summarize %+v", i, sums[i], want)
			}
			if want := r.SeqAVFByNode(); !maps.Equal(nodes[i], want) {
				t.Fatalf("lane %d: reduced node map != SeqAVFByNode", i)
			}
		}
	})
}

// FuzzEnvMatrix attacks the blocked kernel's validation boundary: one
// port pAVF of one workload in a block is replaced with an arbitrary
// float64 bit pattern (NaNs, infinities, subnormals, negatives, huge
// values). The invariant: EnvMatrix construction must reject the block
// at build time exactly when the value is outside [0,1] (including NaN),
// must accept it otherwise, and must never panic or let a non-finite
// value reach EvalBlock — and the same boundary holds for ResetEnvs on a
// directly corrupted prebuilt environment.
func FuzzEnvMatrix(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint8(3), uint16(0), uint64(0x7ff8000000000001)) // NaN
	f.Add(uint64(7), uint64(2), uint8(1), uint16(5), uint64(0x7ff0000000000000)) // +Inf
	f.Add(uint64(9), uint64(3), uint8(4), uint16(1), math.Float64bits(-0.25))
	f.Add(uint64(11), uint64(4), uint8(2), uint16(9), math.Float64bits(0.75)) // in range
	f.Add(uint64(13), uint64(5), uint8(0), uint16(3), math.Float64bits(1.0))  // boundary
	f.Fuzz(func(t *testing.T, seed, inputSeed uint64, lanes uint8, portIdx uint16, valBits uint64) {
		_, res, _ := solved(t, graphtest.Small(seed), inputSeed)
		p, err := Compile(res)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		a := res.Analyzer
		n := 1 + int(lanes%6)
		ws := make([]Workload, n)
		for i := range ws {
			ws[i] = Workload{Name: "w", Inputs: randomInputs(a, inputSeed*17+uint64(i))}
		}

		// Corrupt one port of one workload with the fuzzed bit pattern.
		v := math.Float64frombits(valBits)
		victim := ws[int(seed)%n].Inputs
		sortPorts := func(m map[core.StructPort]float64) []core.StructPort {
			out := make([]core.StructPort, 0, len(m))
			for sp := range m {
				out = append(out, sp)
			}
			sort.Slice(out, func(i, j int) bool {
				return out[i].Struct < out[j].Struct ||
					(out[i].Struct == out[j].Struct && out[i].Port < out[j].Port)
			})
			return out
		}
		reads := sortPorts(victim.ReadPorts)
		writes := sortPorts(victim.WritePorts)
		if len(reads)+len(writes) == 0 {
			t.Skip("design has no structure ports")
		}
		pi := int(portIdx) % (len(reads) + len(writes))
		if pi < len(reads) {
			victim.ReadPorts[reads[pi]] = v
		} else {
			victim.WritePorts[writes[pi-len(reads)]] = v
		}
		bad := !(v >= 0 && v <= 1) // NaN, Inf, negative, > 1

		var m EnvMatrix
		err = m.Reset(a, ws)
		if bad && err == nil {
			t.Fatalf("EnvMatrix.Reset accepted port value %v (bits %#x)", v, valBits)
		}
		if !bad && err != nil {
			t.Fatalf("EnvMatrix.Reset rejected in-range port value %v: %v", v, err)
		}
		dst := make([]*core.Result, n)
		err = p.EvalBlockInto(ws, nil, nil, dst)
		if bad {
			if err == nil {
				t.Fatalf("EvalBlockInto accepted port value %v (bits %#x)", v, valBits)
			}
			return
		}
		if err != nil {
			t.Fatalf("EvalBlockInto rejected in-range port value %v: %v", v, err)
		}
		for i, r := range dst {
			for vi, avf := range r.AVF {
				if !(avf >= 0 && avf <= 1) {
					t.Fatalf("workload %d vertex %d: AVF %v escaped [0,1]", i, vi, avf)
				}
			}
		}

		// Same boundary for prebuilt environments: corrupt one term
		// directly and ResetEnvs must apply the identical accept/reject
		// rule (Top stays 1, so only non-Top terms are fuzzed here).
		env := append(pavf.Env(nil), m.Env(0)...)
		if len(env) > 1 {
			env[1+int(portIdx)%(len(env)-1)] = v
			err = m.ResetEnvs([]pavf.Env{env})
			if bad && err == nil {
				t.Fatalf("ResetEnvs accepted term value %v (bits %#x)", v, valBits)
			}
			if !bad && err != nil {
				t.Fatalf("ResetEnvs rejected in-range term value %v: %v", v, err)
			}
		}
	})
}
