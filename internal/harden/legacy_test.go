package harden

// Reference copies of the hardening pipeline as it stood before the
// mean sink and the layout-built model: Run over materialized
// per-workload results, a model that walks every vertex and keys each
// sequential bit itself, a residual that copies the AVF vector per
// call, greedy's per-budget sort, and the term gradient over a
// sequential-vertex list and a per-vertex AVF vector. The contract
// tests below hold the production path to these byte for byte.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/netlist"
	"seqavf/internal/pavf"
	"seqavf/internal/stats"
	"seqavf/internal/sweep"
)

// keyWalk is the per-vertex key walk: every sequential bit's "fub/node"
// key, candidates numbered by first sighting in vertex order, each with
// its bit vertices in vertex order.
func keyWalk(res *core.Result) (map[string]int, [][]graph.VertexID) {
	a := res.Analyzer
	index := make(map[string]int)
	var verts [][]graph.VertexID
	for v := 0; v < a.G.NumVerts(); v++ {
		if !res.IsSequentialBit(graph.VertexID(v)) {
			continue
		}
		vx := &a.G.Verts[v]
		key := a.G.FubNames[vx.Fub] + "/" + vx.Node.Name
		ci, ok := index[key]
		if !ok {
			ci = len(verts)
			index[key] = ci
			verts = append(verts, nil)
		}
		verts[ci] = append(verts[ci], graph.VertexID(v))
	}
	return index, verts
}

// evalEnvOnce runs the blocked kernel with a single lane — the raw AVF
// vector of one environment.
func evalEnvOnce(p *sweep.Plan, env pavf.Env) ([]float64, error) {
	var m sweep.EnvMatrix
	if err := m.ResetEnvs([]pavf.Env{env}); err != nil {
		return nil, err
	}
	avf := make([]float64, p.NumVerts())
	scratch := make([]float64, p.ScratchLen(1))
	if err := p.EvalBlock(&m, scratch, [][]float64{avf}); err != nil {
		return nil, err
	}
	return avf, nil
}

// legacyModel is the vertex-walking protection model.
type legacyModel struct {
	res   *core.Result
	cands []Candidate
	verts [][]graph.VertexID
	base  core.Summary
}

func newLegacyModel(res *core.Result, costs map[string]float64) (*legacyModel, error) {
	index, verts := keyWalk(res)
	m := &legacyModel{res: res, cands: make([]Candidate, len(verts)), verts: verts}
	for key, ci := range index {
		m.cands[ci].Key = key
	}
	for ci, vs := range verts {
		for _, v := range vs {
			m.cands[ci].Bits++
			m.cands[ci].Gain += res.AVF[v]
		}
		m.cands[ci].Cost = float64(m.cands[ci].Bits)
	}
	for key, c := range costs {
		ci, ok := index[key]
		if !ok {
			return nil, fmt.Errorf("harden: cost table names unknown sequential node %q", key)
		}
		if !(c > 0) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("harden: cost for %q is %v, must be finite and positive", key, c)
		}
		m.cands[ci].Cost = c
	}
	m.base = res.Summarize()
	return m, nil
}

func (m *legacyModel) residual(chosen []int) core.Summary {
	avf := make([]float64, len(m.res.AVF))
	copy(avf, m.res.AVF)
	for _, ci := range chosen {
		for _, v := range m.verts[ci] {
			avf[v] = 0
		}
	}
	masked := *m.res
	masked.AVF = avf
	return masked.Summarize()
}

// legacyGreedy is greedy with its per-budget filter and sort.
func legacyGreedy(cands []Candidate, budget float64) []int {
	order := make([]int, 0, len(cands))
	bestSingle, bestSingleGain := -1, 0.0
	for i, c := range cands {
		if c.Gain <= 0 || c.Cost > budget {
			continue
		}
		order = append(order, i)
		if c.Gain > bestSingleGain {
			bestSingle, bestSingleGain = i, c.Gain
		}
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := cands[order[a]].Density(), cands[order[b]].Density()
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	var chosen []int
	total, remaining := 0.0, budget
	for _, ci := range order {
		c := cands[ci]
		if c.Cost > remaining {
			continue
		}
		chosen = append(chosen, ci)
		total += c.Gain
		remaining -= c.Cost
	}
	if bestSingle >= 0 && bestSingleGain > total {
		return []int{bestSingle}
	}
	return chosen
}

// sweep solves every budget the way Model.Sweep did. The DP and
// exhaustive solvers read only the candidate list, so they run on a
// candidate-only Model.
func (m *legacyModel) sweep(budgets []float64, solver string) ([]*Protection, error) {
	cm := &Model{cands: m.cands}
	out := make([]*Protection, len(budgets))
	for i, budget := range budgets {
		s := solver
		if s == "" || s == SolverAuto {
			s = SolverGreedy
			if _, ok := cm.dpScale(budget); ok {
				s = SolverDP
			}
		}
		var chosen []int
		var err error
		switch s {
		case SolverGreedy:
			chosen = legacyGreedy(m.cands, budget)
		case SolverDP:
			chosen, err = cm.knapsackDP(budget)
		case SolverExhaustive:
			chosen, err = cm.exhaustive(budget)
		}
		if err != nil {
			return nil, err
		}
		p := &Protection{Budget: budget, Solver: s, Chosen: make([]Candidate, 0, len(chosen)),
			BaseChipAVF: m.base.WeightedSeqAVF}
		for _, ci := range chosen {
			p.Chosen = append(p.Chosen, m.cands[ci])
			p.TotalCost += m.cands[ci].Cost
		}
		sort.SliceStable(p.Chosen, func(i, j int) bool {
			di, dj := p.Chosen[i].Density(), p.Chosen[j].Density()
			if di != dj {
				return di > dj
			}
			return p.Chosen[i].Key < p.Chosen[j].Key
		})
		p.ResidualChipAVF = m.residual(chosen).WeightedSeqAVF
		if p.BaseChipAVF > 0 {
			p.ReductionFrac = 1 - p.ResidualChipAVF/p.BaseChipAVF
		}
		out[i] = p
	}
	return out, nil
}

// legacyTermDerivs is TermDerivs over a sequential-vertex list.
func legacyTermDerivs(p *sweep.Plan, env pavf.Env) []float64 {
	sets, fwd, bwd := p.Table()
	nSets := sets.Len()
	value := make([]float64, nSets)
	capped := make([]bool, nSets)
	for s := 0; s < nSets; s++ {
		sum := 0.0
		for _, id := range sets.SetIDs(int32(s)) {
			sum += env[id]
			if sum >= 1 {
				sum = 1
				capped[s] = true
				break
			}
		}
		value[s] = sum
	}
	seq := seqVerts(p.Analyzer)
	wins := make([]int64, nSets)
	for _, v := range seq {
		fi, bi := fwd[v], bwd[v]
		f, b := 1.0, 1.0
		if fi >= 0 {
			f = value[fi]
		}
		if bi >= 0 {
			b = value[bi]
		}
		if b < f {
			if bi >= 0 && !capped[bi] {
				wins[bi]++
			}
		} else if fi >= 0 && !capped[fi] {
			wins[fi]++
		}
	}
	deriv := make([]float64, len(env))
	if len(seq) == 0 {
		return deriv
	}
	n := float64(len(seq))
	for s := 0; s < nSets; s++ {
		if wins[s] == 0 {
			continue
		}
		w := float64(wins[s]) / n
		for _, id := range sets.SetIDs(int32(s)) {
			deriv[id] += w
		}
	}
	deriv[pavf.Top] = 0
	return deriv
}

// legacyVector is the sensitivity vector CachedTermDerivs computed on a
// miss: the gradient, and the chip AVF of a materialized AVF vector.
func legacyVector(t testing.TB, p *sweep.Plan, env pavf.Env) *Vector {
	t.Helper()
	seq := seqVerts(p.Analyzer)
	avf, err := evalEnvOnce(p, env)
	if err != nil {
		t.Fatalf("evalEnvOnce: %v", err)
	}
	return &Vector{
		Fingerprint: p.Analyzer.Fingerprint(),
		EnvHash:     EnvHash(env),
		SeqBits:     len(seq),
		ChipAVF:     chipAVF(avf, seq),
		Deriv:       legacyTermDerivs(p, env),
	}
}

// legacyRun is Run over materialized per-workload results, without a
// sensitivity store or telemetry.
func legacyRun(t testing.TB, eng *sweep.Engine, res *core.Result, ws []sweep.Workload, req *Request) *Response {
	t.Helper()
	resp := &Response{Design: req.Design}
	agg, env := res, res.Env
	if len(ws) > 0 {
		batch, err := eng.SweepContext(context.Background(), res, ws)
		if err != nil {
			t.Fatalf("SweepContext: %v", err)
		}
		mean := make([]float64, len(res.AVF))
		env = make(pavf.Env, len(res.Env))
		for i, r := range batch.Results {
			resp.Workloads = append(resp.Workloads, ws[i].Name)
			for v, x := range r.AVF {
				mean[v] += x
			}
			for t, x := range r.Env {
				env[t] += x
			}
		}
		n := float64(len(ws))
		for v := range mean {
			mean[v] /= n
		}
		for t := range env {
			env[t] /= n
		}
		cp := *res
		cp.AVF = mean
		agg = &cp
	}
	model, err := newLegacyModel(agg, req.Costs)
	if err != nil {
		t.Fatalf("legacy model: %v", err)
	}
	if resp.Plans, err = model.sweep(req.Budgets, req.Solver); err != nil {
		t.Fatalf("legacy sweep: %v", err)
	}
	resp.SeqBits = model.base.SeqBits
	resp.Candidates = len(model.cands)
	resp.BaseChipAVF = model.base.WeightedSeqAVF
	if req.TopTerms > 0 {
		plan, err := eng.Plan(res)
		if err != nil {
			t.Fatalf("Plan: %v", err)
		}
		resp.SensCache = "miss"
		resp.TopTerms = RankDerivs(res.Analyzer.Universe(), legacyVector(t, plan, env).Deriv)
		if len(resp.TopTerms) > req.TopTerms {
			resp.TopTerms = resp.TopTerms[:req.TopTerms]
		}
	}
	return resp
}

var xeon struct {
	once sync.Once
	res  *core.Result
	err  error
}

// xeonLike solves the XeonLike design (seed 2027, the service
// benchmark's) once per test binary.
func xeonLike(t testing.TB) *core.Result {
	t.Helper()
	xeon.once.Do(func() {
		gen, err := design.Generate(design.DefaultConfig(2027))
		if err != nil {
			xeon.err = err
			return
		}
		fd, err := netlist.Flatten(gen.Design)
		if err != nil {
			xeon.err = err
			return
		}
		g, err := graph.Build(fd)
		if err != nil {
			xeon.err = err
			return
		}
		a, err := core.NewAnalyzer(g, core.DefaultOptions())
		if err != nil {
			xeon.err = err
			return
		}
		xeon.res, xeon.err = a.Solve(randomInputs(a, 2027))
	})
	if xeon.err != nil {
		t.Fatalf("XeonLike: %v", xeon.err)
	}
	return xeon.res
}

// xeonWorkloads returns n seeded XeonLike workloads.
func xeonWorkloads(res *core.Result, n int) []sweep.Workload {
	ws := make([]sweep.Workload, n)
	for i := range ws {
		ws[i] = sweep.Workload{Name: fmt.Sprintf("h%02d", i), Inputs: randomInputs(res.Analyzer, uint64(500+i))}
	}
	return ws
}

// TestRunMatchesLegacy is Run's oracle: on XeonLike, at 1, 3, 16, 17
// and 40 workloads, for every solver a serving request names, with and
// without a cost table, Run's response encodes to the same JSON bytes as
// the materializing reference's.
func TestRunMatchesLegacy(t *testing.T) {
	res := xeonLike(t)
	index, _ := keyWalk(res)
	costs := make(map[string]float64)
	for key, ci := range index {
		if ci%5 == 0 {
			costs[key] = float64(1 + ci%13)
		}
	}
	eng := sweep.New(sweep.Options{Workers: 2})
	ref := sweep.New(sweep.Options{Workers: 1})
	for _, n := range []int{1, 3, 16, 17, 40} {
		ws := xeonWorkloads(res, n)
		for _, solver := range []string{SolverGreedy, SolverDP, SolverAuto} {
			for _, c := range []map[string]float64{nil, costs} {
				req := &Request{Design: "xeon", Budgets: []float64{64, 256, 1024, 4096},
					Solver: solver, Costs: c, TopTerms: 16}
				resp, err := Run(context.Background(), eng, res, ws, req, nil, nil)
				if err != nil {
					t.Fatalf("n=%d %s costs=%v: Run: %v", n, solver, c != nil, err)
				}
				got, _ := json.Marshal(resp)
				want, _ := json.Marshal(legacyRun(t, ref, res, ws, req))
				if string(got) != string(want) {
					t.Fatalf("n=%d %s costs=%v: response differs from the materializing reference:\n got %.300s\nwant %.300s",
						n, solver, c != nil, got, want)
				}
			}
		}
	}
}

// TestSensVectorMatchesLegacy: the .sens bytes CachedTermDerivs writes
// on a miss equal those of the vertex-list gradient and the
// materialized chip AVF, on XeonLike at 16 environments.
func TestSensVectorMatchesLegacy(t *testing.T) {
	res := xeonLike(t)
	p, err := sweep.Compile(res)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 16; seed++ {
		env, err := res.Analyzer.CheckedEnv(randomInputs(res.Analyzer, 900+seed))
		if err != nil {
			t.Fatal(err)
		}
		vec, hit, err := CachedTermDerivs(p, env, nil)
		if err != nil || hit {
			t.Fatalf("seed %d: CachedTermDerivs hit=%v err=%v", seed, hit, err)
		}
		if got, want := vec.Encode(), legacyVector(t, p, env).Encode(); string(got) != string(want) {
			t.Fatalf("seed %d: .sens bytes differ from the reference (chip AVF %v vs %v)",
				seed, vec.ChipAVF, legacyVector(t, p, env).ChipAVF)
		}
	}
}

// TestPropertyGreedySortOnce: on 200 seeded random designs, greedy over
// the model's once-sorted density order chooses exactly the sets the
// per-budget filter-and-sort chose, at random budgets (several per
// model, so later ones reuse the order), with and without cost tables.
func TestPropertyGreedySortOnce(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		_, res, _ := solvedRand(t, graphtest.Small(seed), seed^0x6e)
		rng := stats.New(seed ^ 0x50e7)
		costs := make(map[string]float64)
		index, _ := keyWalk(res)
		for key := range index {
			if rng.Bool(0.5) {
				// Integer and fractional costs, so density ties occur.
				costs[key] = float64(1+rng.Intn(6)) / float64(1+rng.Intn(2))
			}
		}
		for _, c := range []map[string]float64{nil, costs} {
			m, err := NewModel(res, c)
			if err != nil {
				t.Fatalf("seed %d: NewModel: %v", seed, err)
			}
			total := 0.0
			for _, cand := range m.Candidates() {
				total += cand.Cost
			}
			for k := 0; k < 8; k++ {
				budget := rng.Float64() * total * 1.1
				if k == 0 {
					budget = float64(rng.Intn(4))
				}
				got, want := m.greedy(budget), legacyGreedy(m.Candidates(), budget)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d costs=%v budget %v: greedy chose %v, per-budget sort %v",
						seed, c != nil, budget, got, want)
				}
			}
		}
	}
}

// TestCostErrorsDeterministic: a request whose cost table holds two bad
// entries gets the same error text on every attempt, whether the
// request decoder or the model rejects it.
func TestCostErrorsDeterministic(t *testing.T) {
	_, res, _ := tinycoreSolved(t)
	eng := sweep.New(sweep.Options{Workers: 1})
	for _, body := range []string{
		`{"design":"tiny","budgets":[10],"costs":{"no/such":1,"also/missing":2}}`,
		`{"design":"tiny","budgets":[10],"costs":{"zz/x":-1,"aa/y":0}}`,
	} {
		first := ""
		for i := 0; i < 50; i++ {
			var msg string
			req, err := ParseRequest([]byte(body))
			if err == nil {
				_, err = Run(context.Background(), eng, res, nil, req, nil, nil)
			}
			if err == nil {
				t.Fatalf("%s: accepted", body)
			}
			msg = err.Error()
			if i == 0 {
				first = msg
			} else if msg != first {
				t.Fatalf("%s: attempt %d says %q, attempt 0 said %q", body, i, msg, first)
			}
		}
	}
}
