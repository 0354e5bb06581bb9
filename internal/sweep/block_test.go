package sweep

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/pavf"
)

// blockWidths are the lane widths every blocked-path test sweeps:
// degenerate (1 lane), tiny, a ragged prime, the default, and wider
// than most test batches (so whole sweeps are one ragged block).
var blockWidths = []int{1, 2, 7, 16, 64}

// newWidth returns an engine whose kernel runs width lanes per block
// instead of DefaultBlockSize.
func newWidth(opts Options, width int) *Engine {
	e := New(opts)
	e.block = width
	return e
}

// reevaluated is the reference the kernel is checked against: res's
// closed forms re-evaluated under in by Result.Reevaluate
// (pavf.Expr.Eval per vertex), which shares no code with the compiled
// CSR plan. res itself is left untouched.
func reevaluated(t testing.TB, res *core.Result, in *core.Inputs) *core.Result {
	t.Helper()
	r := &core.Result{
		Analyzer:   res.Analyzer,
		Sets:       res.Sets,
		Fwd:        res.Fwd,
		Bwd:        res.Bwd,
		AVF:        make([]float64, len(res.AVF)),
		Visited:    res.Visited,
		Iterations: 1,
		Converged:  true,
	}
	if err := r.Reevaluate(in); err != nil {
		t.Fatalf("Reevaluate: %v", err)
	}
	return r
}

// bitIdentical fails the test unless got and want match bit for bit —
// not within a tolerance; the blocked kernel must replay the closed
// forms' arithmetic exactly.
func bitIdentical(t *testing.T, ctxt string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d AVFs, want %d", ctxt, len(got), len(want))
	}
	for v := range got {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s: vertex %d = %x (%v), reference %x (%v)",
				ctxt, v, math.Float64bits(got[v]), got[v], math.Float64bits(want[v]), want[v])
		}
	}
}

// TestPropertyBlockBitIdentity is the blocked kernel's bit-identity
// property test: on 200 seeded random designs, EvalBlock through the
// engine must reproduce Result.Reevaluate of each workload bit for bit
// — for every tested lane width, for ragged tails (batch length
// not a multiple of the width), for widths wider than the batch, and for
// empty batches. Workload order is shuffled per width so result slots
// are checked positionally, and the engine runs two workers, so `go test
// -race` exercises concurrent block claims over one shared plan.
func TestPropertyBlockBitIdentity(t *testing.T) {
	const seeds = 200
	engines := make(map[int]*Engine, len(blockWidths))
	for _, w := range blockWidths {
		engines[w] = newWidth(Options{Workers: 2, CacheSize: 4}, w)
	}
	for seed := uint64(0); seed < seeds; seed++ {
		_, res, _ := solved(t, graphtest.Small(seed), seed^0xb10cb10c)

		// 0..20 workloads: seed 0 exercises the empty batch.
		n := int(seed % 21)
		base := make([]Workload, n)
		for i := range base {
			base[i] = Workload{
				Name:   fmt.Sprintf("w%02d", i),
				Inputs: randomInputs(res.Analyzer, seed*31+uint64(i)),
			}
		}
		want := make(map[string]*core.Result, n)
		for _, w := range base {
			want[w.Name] = reevaluated(t, res, w.Inputs)
		}

		for _, width := range blockWidths {
			// Deterministic per-width shuffle: block boundaries land on
			// different workloads than the submitted order.
			ws := make([]Workload, n)
			copy(ws, base)
			rot := int(seed+uint64(width)) % max(n, 1)
			ws = append(ws[rot:], ws[:rot]...)

			batch, err := engines[width].Sweep(res, ws)
			if err != nil {
				t.Fatalf("seed %d width %d: Sweep: %v", seed, width, err)
			}
			if len(batch.Results) != n {
				t.Fatalf("seed %d width %d: %d results for %d workloads", seed, width, len(batch.Results), n)
			}
			for i, r := range batch.Results {
				ref := want[batch.Names[i]]
				ctxt := fmt.Sprintf("seed %d width %d workload %s", seed, width, batch.Names[i])
				bitIdentical(t, ctxt, r.AVF, ref.AVF)
				if len(r.Env) != len(ref.Env) {
					t.Fatalf("%s: env has %d terms, reference %d", ctxt, len(r.Env), len(ref.Env))
				}
				for id := range r.Env {
					if math.Float64bits(r.Env[id]) != math.Float64bits(ref.Env[id]) {
						t.Fatalf("%s: env term %d = %v, reference %v", ctxt, id, r.Env[id], ref.Env[id])
					}
				}
			}
		}
	}
}

// TestEvalBlockDirect drives Plan.EvalBlock through its exported surface
// — EnvMatrix.ResetEnvs on prebuilt environments, explicit scratch and
// output buffers — and checks bit-identity against each environment's
// closed forms (pavf.Expr.Eval per vertex),
// plus the shape-mismatch errors the engine relies on being errors
// rather than panics.
func TestEvalBlockDirect(t *testing.T) {
	a, res, in := solved(t, graphtest.Default(3), 7)
	p, err := Compile(res)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	envs := make([]pavf.Env, 5)
	for i := range envs {
		env, err := a.CheckedEnv(randomInputs(a, uint64(100+i)))
		if err != nil {
			t.Fatalf("CheckedEnv: %v", err)
		}
		envs[i] = env
	}
	var m EnvMatrix
	if err := m.ResetEnvs(envs); err != nil {
		t.Fatalf("ResetEnvs: %v", err)
	}
	if m.Lanes() != len(envs) || m.Terms() != a.Universe().Len() {
		t.Fatalf("matrix %dx%d, want %dx%d", m.Lanes(), m.Terms(), len(envs), a.Universe().Len())
	}
	for w, env := range envs {
		for id := range env {
			if m.At(pavf.TermID(id), w) != env[id] {
				t.Fatalf("At(%d,%d) = %v, env %v", id, w, m.At(pavf.TermID(id), w), env[id])
			}
		}
	}
	out := make([][]float64, len(envs))
	for w := range out {
		out[w] = make([]float64, p.NumVerts())
	}
	scratch := make([]float64, p.ScratchLen(len(envs)))
	if err := p.EvalBlock(&m, scratch, out); err != nil {
		t.Fatalf("EvalBlock: %v", err)
	}
	avf := make([]float64, p.NumVerts())
	for w, env := range envs {
		for v := range avf {
			avf[v] = res.Expr(graph.VertexID(v)).Eval(env)
		}
		bitIdentical(t, fmt.Sprintf("lane %d", w), out[w], avf)
	}

	// Shape mismatches must come back as errors.
	if err := p.EvalBlock(&m, scratch, out[:3]); err == nil {
		t.Error("EvalBlock accepted too few output vectors")
	}
	if err := p.EvalBlock(&m, scratch[:1], out); err == nil {
		t.Error("EvalBlock accepted undersized scratch")
	}
	short := [][]float64{out[0], out[1], out[2], out[3], out[4][:1]}
	if err := p.EvalBlock(&m, scratch, short); err == nil {
		t.Error("EvalBlock accepted a short output vector")
	}
	if err := m.ResetEnvs([]pavf.Env{envs[0], envs[1][:2]}); err == nil {
		t.Error("ResetEnvs accepted ragged environments")
	}
	bad := append(pavf.Env(nil), envs[0]...)
	bad[1] = math.NaN()
	if err := m.ResetEnvs([]pavf.Env{bad}); err == nil {
		t.Error("ResetEnvs accepted a NaN environment")
	}

	// A matrix from a different design's universe is refused.
	_, res2, _ := solved(t, graphtest.Default(4), 7)
	p2, err := Compile(res2)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if p2.Analyzer.Universe().Len() != a.Universe().Len() {
		if err := p2.EvalBlock(&m, scratch, out); err == nil {
			t.Error("EvalBlock accepted a matrix from a different universe")
		}
	}
	_ = in
}

// TestEvalBlockIntoErrors: the block entry point the engine calls must
// reject slot/workload length mismatches and name the offending workload
// when a lane's inputs are bad.
func TestEvalBlockIntoErrors(t *testing.T) {
	a, res, _ := solved(t, graphtest.Small(5), 1)
	p, err := Compile(res)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ws := []Workload{
		{Name: "good", Inputs: randomInputs(a, 1)},
		{Name: "bad", Inputs: core.NewInputs()}, // missing every port pAVF
	}
	dst := make([]*core.Result, 1)
	if err := p.EvalBlockInto(ws, nil, nil, dst); err == nil {
		t.Error("EvalBlockInto accepted mismatched dst length")
	}
	dst = make([]*core.Result, 2)
	err = p.EvalBlockInto(ws, nil, nil, dst)
	if err == nil {
		t.Fatal("EvalBlockInto accepted a workload with missing port pAVFs")
	}
	if !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("error %q does not name the failing workload", err)
	}
}
