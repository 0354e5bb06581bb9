package sweep

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/obs"
	"seqavf/internal/pavf"
)

// workloadMean is the mean sink's reference: the per-vertex AVF vectors
// and environments of refs summed in workload order, then divided by
// their count.
func workloadMean(refs []*core.Result) ([]float64, pavf.Env) {
	avf := make([]float64, len(refs[0].AVF))
	env := make(pavf.Env, len(refs[0].Env))
	for _, r := range refs {
		for v, x := range r.AVF {
			avf[v] += x
		}
		for i, x := range r.Env {
			env[i] += x
		}
	}
	n := float64(len(refs))
	for v := range avf {
		avf[v] /= n
	}
	for i := range env {
		env[i] /= n
	}
	return avf, env
}

// TestPropertyMeanSinkEquality is the mean sink's bit contract on 200
// seeded random designs: at every lane width, ragged tails included,
// with one worker and with two claiming blocks concurrently, the mean
// AVF vector and mean environment equal the workload-order mean of
// Result.Reevaluate's per-workload results, bit for bit.
func TestPropertyMeanSinkEquality(t *testing.T) {
	const seeds = 200
	type key struct{ width, workers int }
	engines := make(map[key]*Engine)
	for _, w := range summaryWidths {
		for _, workers := range []int{1, 2} {
			engines[key{w, workers}] = newWidth(Options{Workers: workers, CacheSize: 4}, w)
		}
	}
	for seed := uint64(0); seed < seeds; seed++ {
		_, res, _ := solved(t, graphtest.Small(seed), seed^0x3ea1)
		n := 1 + int(seed%40) // 1..40: sub-block, ragged and multi-block batches
		ws := make([]Workload, n)
		refs := make([]*core.Result, n)
		for i := range ws {
			ws[i] = Workload{Name: fmt.Sprintf("w%02d", i), Inputs: randomInputs(res.Analyzer, seed*257+uint64(i))}
			refs[i] = reevaluated(t, res, ws[i].Inputs)
		}
		wantAVF, wantEnv := workloadMean(refs)
		for _, width := range summaryWidths {
			for _, workers := range []int{1, 2} {
				ctxt := fmt.Sprintf("seed %d width %d workers %d", seed, width, workers)
				avf, env, err := engines[key{width, workers}].MeanContext(context.Background(), res, ws)
				if err != nil {
					t.Fatalf("%s: MeanContext: %v", ctxt, err)
				}
				bitIdentical(t, ctxt+" mean AVF", avf, wantAVF)
				bitIdentical(t, ctxt+" mean env", env, wantEnv)
			}
		}
	}
}

// TestMeanContextTelemetry: the mean sink runs under the engine's
// sweep.eval span marked output=mean and counts its workloads as
// reduced; a cancelled context fails it with no mean, and an empty
// batch is refused.
func TestMeanContextTelemetry(t *testing.T) {
	_, res, _ := solved(t, graphtest.Small(3), 9)
	reg := obs.New()
	e := New(Options{Workers: 2, Obs: reg})
	ws := make([]Workload, 5)
	for i := range ws {
		ws[i] = Workload{Name: fmt.Sprintf("w%d", i), Inputs: randomInputs(res.Analyzer, uint64(i))}
	}
	if _, _, err := e.MeanContext(context.Background(), res, ws); err != nil {
		t.Fatalf("MeanContext: %v", err)
	}
	var outputs []string
	for _, sp := range reg.Snapshot().Spans {
		if sp.Name == "sweep.eval" {
			out, _ := sp.Attrs["output"].(string)
			outputs = append(outputs, out)
		}
	}
	if fmt.Sprint(outputs) != "[mean]" {
		t.Fatalf("sweep.eval outputs %v, want [mean]", outputs)
	}
	if got := reg.Counter("sweep.workloads_reduced").Load(); got != 5 {
		t.Fatalf("sweep.workloads_reduced = %d, want 5", got)
	}

	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("client went away")
	cancel(cause)
	avf, env, err := e.MeanContext(ctx, res, ws)
	if err == nil || !errors.Is(err, cause) || avf != nil || env != nil {
		t.Fatalf("cancelled MeanContext: avf %d, env %d, err %v", len(avf), len(env), err)
	}
	if got := reg.Counter("sweep.workloads_reduced").Load(); got != 5 {
		t.Fatalf("cancelled mean counted: sweep.workloads_reduced = %d", got)
	}
	if _, _, err := e.MeanContext(context.Background(), res, nil); err == nil {
		t.Fatal("MeanContext accepted an empty batch")
	}
	bad := []Workload{{Name: "bad", Inputs: core.NewInputs()}}
	if _, _, err := e.MeanContext(context.Background(), res, bad); err == nil {
		t.Fatal("MeanContext accepted a workload with missing port pAVFs")
	}
}

// TestEvalPairsMatchesEvalBlock: the exported pair values, broadcast
// through VertexRuns, reproduce EvalBlock's per-vertex AVFs bit for bit,
// and EvalPairs refuses the shapes EvalBlock refuses.
func TestEvalPairsMatchesEvalBlock(t *testing.T) {
	a, res, _ := solved(t, graphtest.Small(8), 4)
	p, err := Compile(res)
	if err != nil {
		t.Fatal(err)
	}
	envs := make([]pavf.Env, 3)
	for i := range envs {
		if envs[i], err = a.CheckedEnv(randomInputs(a, uint64(40+i))); err != nil {
			t.Fatal(err)
		}
	}
	var m EnvMatrix
	if err := m.ResetEnvs(envs); err != nil {
		t.Fatal(err)
	}
	scratch := make([]float64, p.ScratchLen(len(envs)))
	out := make([][]float64, len(envs))
	for w := range out {
		out[w] = make([]float64, p.NumVerts())
	}
	if err := p.EvalBlock(&m, scratch, out); err != nil {
		t.Fatal(err)
	}
	pv, err := p.EvalPairs(&m, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(pv) != p.NumPairs()*len(envs) {
		t.Fatalf("%d pair values for %d pairs x %d lanes", len(pv), p.NumPairs(), len(envs))
	}
	off, pair := p.VertexRuns()
	for w := range envs {
		got := make([]float64, p.NumVerts())
		for r, pi := range pair {
			for v := off[r]; v < off[r+1]; v++ {
				got[v] = pv[int(pi)*len(envs)+w]
			}
		}
		bitIdentical(t, fmt.Sprintf("lane %d", w), got, out[w])
	}
	if _, err := p.EvalPairs(&m, scratch[:1]); err == nil {
		t.Error("EvalPairs accepted a short scratch")
	}
	var empty EnvMatrix
	if pv, err := p.EvalPairs(&empty, nil); pv != nil || err != nil {
		t.Errorf("empty matrix: %d values, err %v", len(pv), err)
	}
	short := EnvMatrix{}
	if err := short.ResetEnvs([]pavf.Env{envs[0][:len(envs[0])-1]}); err == nil {
		if _, err := p.EvalPairs(&short, scratch); err == nil {
			t.Error("EvalPairs accepted a matrix with too few terms")
		}
	}
}
