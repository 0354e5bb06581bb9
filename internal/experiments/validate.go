package experiments

import (
	"io"
	"sort"
	"time"

	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/isa"
	"seqavf/internal/netlist"
	"seqavf/internal/sfi"
	"seqavf/internal/sweep"
	"seqavf/internal/tinycore"
	"seqavf/internal/uarch"
	"seqavf/internal/workload"
)

// Table1Row is one node of the Figure 7 worked example.
type Table1Row struct {
	Node     string
	Equation string
	Forward  float64
	Backward float64
	AVF      float64
}

// Table1Result reproduces the paper's worked propagation example (Figure
// 7 + Table 1): the exact circuit, its closed-form equations, and the
// resolved values.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 builds the Figure 7 circuit with the paper's pAVF values
// (pAVF_R(S1)=0.10, pAVF_R(S2)=0.02) and representative write-port values.
func Table1() (*Table1Result, error) {
	d := netlist.NewDesign("fig7")
	for _, s := range []string{"S1", "S2", "S3", "S4"} {
		d.AddStructure(s, 4, 1)
	}
	m := d.AddModule("m")
	b := netlist.Build(m)
	s1 := b.SRead("s1_rd", 1, "S1", "rd")
	s2 := b.SRead("s2_rd", 1, "S2", "rd")
	q1a := b.Seq("q1a", 1, s1)
	q2a := b.Seq("q2a", 1, q1a)
	q1b := b.Seq("q1b", 1, s2)
	g1 := b.C("g1", 1, netlist.OpNor, q1a, q1b)
	q3b := b.Seq("q3b", 1, g1)
	g2 := b.C("g2", 1, netlist.OpNor, q2a, g1)
	q3a := b.Seq("q3a", 1, g2)
	b.SWrite("s3_wr", "S3", "wr", q3a)
	b.SWrite("s4_wr", "S4", "wr", q3b)
	d.AddFub("F", "m")
	if err := d.Validate(); err != nil {
		return nil, err
	}
	fd, err := netlist.Flatten(d)
	if err != nil {
		return nil, err
	}
	bg, err := graph.Build(fd)
	if err != nil {
		return nil, err
	}
	a, err := core.NewAnalyzer(bg, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	in := core.NewInputs()
	in.ReadPorts[core.StructPort{Struct: "S1", Port: "rd"}] = 0.10
	in.ReadPorts[core.StructPort{Struct: "S2", Port: "rd"}] = 0.02
	in.WritePorts[core.StructPort{Struct: "S3", Port: "wr"}] = 0.50
	in.WritePorts[core.StructPort{Struct: "S4", Port: "wr"}] = 0.20
	res, err := a.Solve(in)
	if err != nil {
		return nil, err
	}
	out := &Table1Result{}
	for _, node := range []string{"q1a", "q2a", "q1b", "g1", "g2", "q3a", "q3b"} {
		v, _, _ := bg.VertexBase("F", node)
		x := res.Expr(v)
		out.Rows = append(out.Rows, Table1Row{
			Node:     node,
			Equation: res.Equation(v),
			Forward:  x.FwdValue(res.Env),
			Backward: x.BwdValue(res.Env),
			AVF:      res.AVF[v],
		})
	}
	return out, nil
}

// WriteText renders the worked example.
func (r *Table1Result) WriteText(w io.Writer) {
	fprintf(w, "Table 1 / Figure 7: worked propagation example\n")
	fprintf(w, "pAVF_R(S1)=0.10  pAVF_R(S2)=0.02  pAVF_W(S3)=0.50  pAVF_W(S4)=0.20\n")
	rule(w)
	fprintf(w, "%-6s %-8s %-8s %-8s %s\n", "node", "fwd", "bwd", "AVF", "closed form")
	for _, row := range r.Rows {
		fprintf(w, "%-6s %-8.3f %-8.3f %-8.3f %s\n",
			row.Node, row.Forward, row.Backward, row.AVF, row.Equation)
	}
}

// ValidateNode compares SART and SFI for one sequential node.
type ValidateNode struct {
	Node    string
	Width   int
	IsLoop  bool
	SartAVF float64
	// SartBound is the SART value with the loop-boundary pAVF pinned to
	// 100% — the fully conservative setting of §4.3's solution 3.
	SartBound float64
	SfiAVF    float64
	SfiLo     float64
	SfiHi     float64
}

// ValidateResult is the SART-vs-fault-injection study on the netlist core
// (the reproduction's ground-truth check, experiment E7), together with
// the cost comparison motivating the paper (E6).
type ValidateResult struct {
	Workload string
	Nodes    []ValidateNode
	// ConservativeNonLoop counts non-loop nodes where SART >= SFI lower
	// bound. SART is conservative by construction except at loop
	// boundaries, where the injected static pAVF is an engineering
	// approximation (§4.3).
	ConservativeNonLoop int
	NonLoopNodes        int
	// ConservativeBound counts all nodes where the loop-pAVF=1.0 setting
	// bounds the SFI measurement — the strict conservatism check.
	ConservativeBound int
	TotalNodes        int
	// Cost accounting.
	SfiInjections      int
	SfiSimCycles       uint64
	SfiWallTime        time.Duration
	SartWallTime       time.Duration
	ReevalWallTime     time.Duration
	GoldenCycles       uint64
	SartVisitedPercent float64
}

// Validate runs the study for one workload.
func Validate(prog string, injectionsPerBit int) (*ValidateResult, error) {
	p := pickProgram(prog)
	// Performance-model measurements.
	perf, err := uarch.Run(p, uarch.DefaultConfig())
	if err != nil {
		return nil, err
	}
	inputs, err := tinycore.BindInputs(perf.Report)
	if err != nil {
		return nil, err
	}
	// SART on the netlist.
	fd, err := tinycore.FlatDesign(len(p.Code))
	if err != nil {
		return nil, err
	}
	bg, err := graph.Build(fd)
	if err != nil {
		return nil, err
	}
	analyzer, err := core.NewAnalyzer(bg, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := analyzer.Solve(inputs)
	if err != nil {
		return nil, err
	}
	sartTime := time.Since(t0)
	t0 = time.Now()
	if err := res.Reevaluate(inputs); err != nil {
		return nil, err
	}
	reevalTime := time.Since(t0)
	sartByNode := res.SeqAVFByNode()

	// Fully conservative loop treatment for the strict bound check.
	boundOpts := core.DefaultOptions()
	boundOpts.LoopPAVF = 1.0
	boundAnalyzer, err := core.NewAnalyzer(bg, boundOpts)
	if err != nil {
		return nil, err
	}
	boundRes, err := boundAnalyzer.Solve(inputs)
	if err != nil {
		return nil, err
	}
	boundByNode := boundRes.SeqAVFByNode()

	// SFI campaign on the same netlist running the same program.
	machine, err := tinycore.New(p)
	if err != nil {
		return nil, err
	}
	cfg := sfi.DefaultConfig()
	if injectionsPerBit > 0 {
		cfg.InjectionsPerBit = injectionsPerBit
	}
	t0 = time.Now()
	camp, err := sfi.Run(machine.Sim, sfi.Observation{
		Fub: tinycore.FubName, Valid: "out_valid", Data: "out_data", Halted: "halted_o",
	}, cfg)
	if err != nil {
		return nil, err
	}
	sfiTime := time.Since(t0)

	out := &ValidateResult{
		Workload:           p.Name,
		SfiInjections:      camp.Injections,
		SfiSimCycles:       camp.SimulatedCycles,
		SfiWallTime:        sfiTime,
		SartWallTime:       sartTime,
		ReevalWallTime:     reevalTime,
		GoldenCycles:       camp.GoldenCycles,
		SartVisitedPercent: 100 * res.VisitedFraction(),
	}
	loopNodes := make(map[string]bool)
	for v := 0; v < bg.NumVerts(); v++ {
		if analyzer.Role(graph.VertexID(v)) == core.RoleLoop {
			vx := &bg.Verts[v]
			loopNodes[bg.FubNames[vx.Fub]+"/"+vx.Node.Name] = true
		}
	}
	for i := range camp.Nodes {
		n := &camp.Nodes[i]
		key := n.Fub + "/" + n.Node
		ci := n.CI()
		vn := ValidateNode{
			Node:      key,
			Width:     n.Width,
			IsLoop:    loopNodes[key],
			SartAVF:   sartByNode[key],
			SartBound: boundByNode[key],
			SfiAVF:    n.AVF(),
			SfiLo:     ci.Lo,
			SfiHi:     ci.Hi,
		}
		out.Nodes = append(out.Nodes, vn)
		out.TotalNodes++
		if vn.SartBound >= vn.SfiLo {
			out.ConservativeBound++
		}
		if !vn.IsLoop {
			out.NonLoopNodes++
			if vn.SartAVF >= vn.SfiLo {
				out.ConservativeNonLoop++
			}
		}
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].Node < out.Nodes[j].Node })
	return out, nil
}

func pickProgram(name string) *isa.Program {
	switch name {
	case "lattice":
		return workload.Lattice(6)
	default:
		return workload.MD5Like(60)
	}
}

// WriteText renders the validation table.
func (r *ValidateResult) WriteText(w io.Writer) {
	fprintf(w, "SART vs statistical fault injection on tinycore (%s)\n", r.Workload)
	rule(w)
	fprintf(w, "%-16s %-6s %-6s %-10s %-10s %-10s %-18s\n",
		"node", "bits", "loop", "SART@0.3", "SART@1.0", "SFI", "SFI 95%CI")
	for _, n := range r.Nodes {
		loop := ""
		if n.IsLoop {
			loop = "yes"
		}
		fprintf(w, "%-16s %-6d %-6s %-10.3f %-10.3f %-10.3f [%.3f, %.3f]\n",
			n.Node, n.Width, loop, n.SartAVF, n.SartBound, n.SfiAVF, n.SfiLo, n.SfiHi)
	}
	rule(w)
	fprintf(w, "non-loop nodes with SART >= SFI lower bound: %d / %d\n",
		r.ConservativeNonLoop, r.NonLoopNodes)
	fprintf(w, "nodes bounded by loop-pAVF=1.0 setting:      %d / %d\n",
		r.ConservativeBound, r.TotalNodes)
	fprintf(w, "SFI: %d injections, %d simulated cycles, %v wall time\n",
		r.SfiInjections, r.SfiSimCycles, r.SfiWallTime.Round(time.Millisecond))
	fprintf(w, "SART: one analytical pass, %v wall time (visited %.1f%% of nodes)\n",
		r.SartWallTime.Round(time.Microsecond), r.SartVisitedPercent)
	fprintf(w, "closed-form re-evaluation:   %v\n", r.ReevalWallTime.Round(time.Microsecond))
	if r.SartWallTime > 0 {
		fprintf(w, "SFI/SART wall-time ratio: %.0fx\n",
			float64(r.SfiWallTime)/float64(r.SartWallTime))
	}
}

// SymbolicResult compares full re-solves against closed-form
// re-evaluation across the workload suite (§5.1's payoff), both
// per-workload (Result.Reevaluate) and batched through the compiled
// sweep plan (internal/sweep).
type SymbolicResult struct {
	Workloads    []string
	MaxDeviation float64
	SolveTime    time.Duration
	ReevalTime   time.Duration
	// CompileTime is the one-off plan compilation; SweepTime is the batch
	// evaluation of every workload through the plan.
	CompileTime time.Duration
	SweepTime   time.Duration
	Plan        sweep.Stats
}

// Symbolic runs the study on the XeonLike environment: one solve against
// the suite average yields closed forms that are re-evaluated for every
// workload three ways (fresh solve, Reevaluate, batch sweep); any
// disagreement shows up in MaxDeviation.
func Symbolic(env *Env) (*SymbolicResult, error) {
	out := &SymbolicResult{}
	base, err := env.Analyzer.Solve(env.AvgInputs)
	if err != nil {
		return nil, err
	}
	ws := make([]sweep.Workload, 0, len(env.Workloads))
	for _, name := range env.Workloads {
		in, err := env.Gen.Inputs(env.Reports[name])
		if err != nil {
			return nil, err
		}
		ws = append(ws, sweep.Workload{Name: name, Inputs: in})
		out.Workloads = append(out.Workloads, name)
	}

	// Reference: a full symbolic solve per workload.
	fresh := make([]*core.Result, len(ws))
	t0 := time.Now()
	for i := range ws {
		if fresh[i], err = env.Analyzer.Solve(ws[i].Inputs); err != nil {
			return nil, err
		}
	}
	out.SolveTime = time.Since(t0)

	// Per-workload closed-form re-evaluation.
	t0 = time.Now()
	for i := range ws {
		if err := base.Reevaluate(ws[i].Inputs); err != nil {
			return nil, err
		}
		if d := core.MaxAbsDiff(base, fresh[i]); d > out.MaxDeviation {
			out.MaxDeviation = d
		}
	}
	out.ReevalTime = time.Since(t0)

	// Batched evaluation through the compiled plan, one kernel pass per
	// block of DefaultBlockSize workloads.
	t0 = time.Now()
	plan, err := sweep.Compile(base)
	if err != nil {
		return nil, err
	}
	out.CompileTime = time.Since(t0)
	out.Plan = plan.Stats()
	t0 = time.Now()
	swept := make([]*core.Result, len(ws))
	var m sweep.EnvMatrix
	scratch := make([]float64, plan.ScratchLen(sweep.DefaultBlockSize))
	for lo := 0; lo < len(ws); lo += sweep.DefaultBlockSize {
		hi := min(lo+sweep.DefaultBlockSize, len(ws))
		if err := plan.EvalBlockInto(ws[lo:hi], &m, scratch, swept[lo:hi]); err != nil {
			return nil, err
		}
	}
	out.SweepTime = time.Since(t0)
	for i := range ws {
		if d := core.MaxAbsDiff(swept[i], fresh[i]); d > out.MaxDeviation {
			out.MaxDeviation = d
		}
	}
	return out, nil
}

// WriteText renders the comparison.
func (r *SymbolicResult) WriteText(w io.Writer) {
	fprintf(w, "Closed-form re-evaluation vs full re-solve (%d workloads)\n", len(r.Workloads))
	rule(w)
	fprintf(w, "max |AVF deviation|: %.2e\n", r.MaxDeviation)
	fprintf(w, "full solves:         %v\n", r.SolveTime.Round(time.Microsecond))
	fprintf(w, "closed-form evals:   %v\n", r.ReevalTime.Round(time.Microsecond))
	fprintf(w, "plan compile:        %v (%d unique subterms for %d equations)\n",
		r.CompileTime.Round(time.Microsecond), r.Plan.UniqueSets, r.Plan.Vertices)
	fprintf(w, "batch sweep:         %v\n", r.SweepTime.Round(time.Microsecond))
	if r.ReevalTime > 0 {
		fprintf(w, "speedup (reeval):    %.1fx\n", float64(r.SolveTime)/float64(r.ReevalTime))
	}
	if r.SweepTime > 0 {
		fprintf(w, "speedup (sweep):     %.1fx\n", float64(r.SolveTime)/float64(r.SweepTime))
	}
}
