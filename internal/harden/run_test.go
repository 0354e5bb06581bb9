package harden

import (
	"context"
	"reflect"
	"testing"

	"seqavf/internal/obs"
	"seqavf/internal/pavf"
	"seqavf/internal/sweep"
)

// TestRunBaseline checks Run without workloads: it plans on the solved
// result itself, truncates the term ranking, and reports the .sens
// cache disposition.
func TestRunBaseline(t *testing.T) {
	_, res, _ := tinycoreSolved(t)
	reg := obs.New()
	eng := sweep.New(sweep.Options{Workers: 1, Obs: reg})
	req := &Request{Design: "tiny", Budgets: []float64{10, 40}, Solver: SolverGreedy, TopTerms: 3}
	st := &memStore{}
	for _, want := range []string{"miss", "hit"} {
		resp, err := Run(context.Background(), eng, res, nil, req, st, reg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if resp.SensCache != want {
			t.Errorf("sens_cache %q, want %q", resp.SensCache, want)
		}
		if resp.Design != "tiny" || resp.Workloads != nil || len(resp.TopTerms) != 3 {
			t.Errorf("response design %q, workloads %v, %d top terms", resp.Design, resp.Workloads, len(resp.TopTerms))
		}
		m, err := NewModel(res, nil)
		if err != nil {
			t.Fatal(err)
		}
		plans, err := m.Sweep(req.Budgets, req.Solver)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Plans, plans) {
			t.Errorf("plans differ from a direct model sweep")
		}
		if resp.SeqBits != m.SeqBits() || resp.Candidates != len(m.Candidates()) ||
			resp.BaseChipAVF != m.Base().WeightedSeqAVF {
			t.Errorf("model summary %d/%d/%v, want %d/%d/%v", resp.SeqBits, resp.Candidates, resp.BaseChipAVF,
				m.SeqBits(), len(m.Candidates()), m.Base().WeightedSeqAVF)
		}
	}
	if n := reg.FixedHistogram("harden.optimize_seconds", obs.LatencyBuckets).Count(); n != 2 {
		t.Errorf("harden.optimize_seconds observed %d times, want 2", n)
	}

	bad := *req
	bad.Costs = map[string]float64{"no/such": 1}
	if _, err := Run(context.Background(), eng, res, nil, &bad, nil, reg); err == nil {
		t.Error("Run accepted a cost table naming an unknown node")
	}
}

// TestRunWorkloadMean checks Run with workloads against an independent
// path: solve each workload, average the AVF vectors and environments,
// and plan and rank on those.
func TestRunWorkloadMean(t *testing.T) {
	a, res, _ := tinycoreSolved(t)
	eng := sweep.New(sweep.Options{Workers: 1})
	ws := []sweep.Workload{
		{Name: "w0", Inputs: randomInputs(a, 71)},
		{Name: "w1", Inputs: randomInputs(a, 72)},
	}
	req := &Request{Design: "tiny", Budgets: []float64{25}, TopTerms: 5}
	resp, err := Run(context.Background(), eng, res, ws, req, nil, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(resp.Workloads, []string{"w0", "w1"}) || resp.SensCache != "miss" {
		t.Errorf("workloads %v, sens_cache %q", resp.Workloads, resp.SensCache)
	}

	mean := make([]float64, len(res.AVF))
	env := make(pavf.Env, len(res.Env))
	for _, w := range ws {
		r, err := a.Solve(w.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		for v, x := range r.AVF {
			mean[v] += x
		}
		for i, x := range r.Env {
			env[i] += x
		}
	}
	for v := range mean {
		mean[v] /= 2
	}
	for i := range env {
		env[i] /= 2
	}
	cp := *res
	cp.AVF = mean
	m, err := NewModel(&cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Optimize(25, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Plans, []*Protection{want}) {
		t.Errorf("plan on the workload mean differs:\nRun  %+v\nwant %+v", resp.Plans[0], want)
	}
	plan, err := sweep.Compile(res)
	if err != nil {
		t.Fatal(err)
	}
	deriv, err := TermDerivs(plan, env)
	if err != nil {
		t.Fatal(err)
	}
	if ranked := RankDerivs(a.Universe(), deriv)[:5]; !reflect.DeepEqual(resp.TopTerms, ranked) {
		t.Errorf("top terms at the mean env differ:\nRun  %+v\nwant %+v", resp.TopTerms, ranked)
	}
}
