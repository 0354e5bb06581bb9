package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
)

func mustAnalyze(t *testing.T, d *netlist.Design, opts Options) *Analyzer {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	fd, err := netlist.Flatten(d)
	if err != nil {
		t.Fatalf("Flatten: %v", err)
	}
	g, err := graph.Build(fd)
	if err != nil {
		t.Fatalf("graph.Build: %v", err)
	}
	a, err := NewAnalyzer(g, opts)
	if err != nil {
		t.Fatalf("NewAnalyzer: %v", err)
	}
	return a
}

func vtx(t *testing.T, a *Analyzer, fub, node string) graph.VertexID {
	t.Helper()
	v, _, ok := a.G.VertexBase(fub, node)
	if !ok {
		t.Fatalf("vertex %s/%s not found", fub, node)
	}
	return v
}

func approx(t *testing.T, got, want float64, what string) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

// figure7 reconstructs the paper's worked propagation example: structures
// S1 and S2 feed a network of sequentials (Q*) and gates (G1, G2) that
// drives the write ports of S3 and S4.
func figure7(t *testing.T) (*Analyzer, *Inputs) {
	t.Helper()
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

	a := mustAnalyze(t, d, DefaultOptions())
	in := NewInputs()
	in.ReadPorts[StructPort{"S1", "rd"}] = 0.10
	in.ReadPorts[StructPort{"S2", "rd"}] = 0.02
	in.WritePorts[StructPort{"S3", "wr"}] = 0.50
	in.WritePorts[StructPort{"S4", "wr"}] = 0.20
	return a, in
}

// TestFigure7 verifies the full worked example from §4.2 of the paper,
// including the idempotent union at G2.
func TestFigure7(t *testing.T) {
	a, in := figure7(t)
	r, err := a.Solve(in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	cases := map[string]float64{
		"q1a": 0.10, // forward pAVF_1; backward 0.7
		"q2a": 0.10, // simple pipe from S1
		"q1b": 0.02, // forward pAVF_2
		"g1":  0.12, // union pAVF_1 + pAVF_2
		"g2":  0.12, // pAVF_1 U (pAVF_1 U pAVF_2) = 0.12, NOT 0.22
		"q3a": 0.12,
		"q3b": 0.12, // min(0.12 fwd, 0.2 bwd) = 0.12
	}
	for node, want := range cases {
		v := vtx(t, a, "F", node)
		approx(t, r.AVF[v], want, node)
	}
	// Backward estimates (Expr sides): Q1a's backward walk sees the union
	// of the two downstream write ports: 0.5 + 0.2 = 0.7.
	q1a := vtx(t, a, "F", "q1a")
	approx(t, r.Expr(q1a).BwdValue(r.Env), 0.70, "q1a backward")
	approx(t, r.Expr(q1a).FwdValue(r.Env), 0.10, "q1a forward")

	// Closed form should mention both sources.
	eq := r.Equation(vtx(t, a, "F", "g1"))
	if !strings.Contains(eq, "pAVF_R(S1.rd)") || !strings.Contains(eq, "pAVF_R(S2.rd)") {
		t.Fatalf("g1 equation missing terms: %s", eq)
	}
	// Everything in this little design is visited.
	if got := r.VisitedFraction(); got != 1 {
		t.Fatalf("visited fraction = %v, want 1", got)
	}
}

// TestTable1SimplePipe: AVF(all nodes) = MIN(pAVF_R(S1), pAVF_W(S2)).
func TestTable1SimplePipe(t *testing.T) {
	d := netlist.NewDesign("pipe")
	d.AddStructure("S1", 4, 8)
	d.AddStructure("S2", 4, 8)
	m := d.AddModule("m")
	b := netlist.Build(m)
	rd := b.SRead("rd", 8, "S1", "rd")
	last := b.Pipe("q", 8, 3, rd)
	b.SWrite("wr", "S2", "wr", last)
	d.AddFub("F", "m")
	a := mustAnalyze(t, d, DefaultOptions())

	in := NewInputs()
	in.ReadPorts[StructPort{"S1", "rd"}] = 0.4
	in.WritePorts[StructPort{"S2", "wr"}] = 0.25
	r, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"q_1", "q_2", "q_3"} {
		v := vtx(t, a, "F", node)
		for b := graph.VertexID(0); b < 8; b++ {
			approx(t, r.AVF[v+b], 0.25, node) // MIN(0.4, 0.25)
		}
	}
	// Flip the relation: now the read port is the tighter bound.
	in.ReadPorts[StructPort{"S1", "rd"}] = 0.1
	if err := r.Reevaluate(in); err != nil {
		t.Fatal(err)
	}
	approx(t, r.AVF[vtx(t, a, "F", "q_2")], 0.1, "q_2 after reeval")
}

// TestTable1LogicalJoin reproduces the join row of Table 1.
func TestTable1LogicalJoin(t *testing.T) {
	d := netlist.NewDesign("join")
	d.AddStructure("S1", 4, 1)
	d.AddStructure("S2", 4, 1)
	d.AddStructure("S3", 4, 1)
	m := d.AddModule("m")
	b := netlist.Build(m)
	q1a := b.Seq("q1a", 1, b.SRead("s1_rd", 1, "S1", "rd"))
	q1b := b.Seq("q1b", 1, b.SRead("s2_rd", 1, "S2", "rd"))
	g := b.C("g", 1, netlist.OpAnd, q1a, q1b)
	q2a := b.Seq("q2a", 1, g)
	b.SWrite("s3_wr", "S3", "wr", q2a)
	d.AddFub("F", "m")
	a := mustAnalyze(t, d, DefaultOptions())

	in := NewInputs()
	in.ReadPorts[StructPort{"S1", "rd"}] = 0.10
	in.ReadPorts[StructPort{"S2", "rd"}] = 0.07
	in.WritePorts[StructPort{"S3", "wr"}] = 0.12
	r, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.AVF[vtx(t, a, "F", "q1a")], 0.10, "q1a") // MIN(0.10, 0.12)
	approx(t, r.AVF[vtx(t, a, "F", "q1b")], 0.07, "q1b") // MIN(0.07, 0.12)
	approx(t, r.AVF[vtx(t, a, "F", "q2a")], 0.12, "q2a") // MIN(0.17, 0.12)
}

// TestTable1DistributionSplit reproduces the split row of Table 1.
func TestTable1DistributionSplit(t *testing.T) {
	d := netlist.NewDesign("split")
	d.AddStructure("S1", 4, 1)
	d.AddStructure("S2", 4, 1)
	d.AddStructure("S3", 4, 1)
	m := d.AddModule("m")
	b := netlist.Build(m)
	q1a := b.Seq("q1a", 1, b.SRead("s1_rd", 1, "S1", "rd"))
	q2a := b.Seq("q2a", 1, q1a)
	q2b := b.Seq("q2b", 1, q1a)
	b.SWrite("s2_wr", "S2", "wr", q2a)
	b.SWrite("s3_wr", "S3", "wr", q2b)
	d.AddFub("F", "m")
	a := mustAnalyze(t, d, DefaultOptions())

	in := NewInputs()
	in.ReadPorts[StructPort{"S1", "rd"}] = 0.30
	in.WritePorts[StructPort{"S2", "wr"}] = 0.05
	in.WritePorts[StructPort{"S3", "wr"}] = 0.08
	r, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.AVF[vtx(t, a, "F", "q2a")], 0.05, "q2a") // MIN(0.30, 0.05)
	approx(t, r.AVF[vtx(t, a, "F", "q2b")], 0.08, "q2b") // MIN(0.30, 0.08)
	approx(t, r.AVF[vtx(t, a, "F", "q1a")], 0.13, "q1a") // MIN(0.30, 0.05+0.08)
}

// loopFixture: a counter loop feeding a pipeline into a write port.
func loopFixture(t *testing.T, loopPAVF float64) (*Analyzer, *Inputs) {
	t.Helper()
	d := netlist.NewDesign("loopy")
	d.AddStructure("S", 4, 8)
	m := d.AddModule("m")
	b := netlist.Build(m)
	one := b.Const("one", 8, 1)
	b.Seq("count", 8, "cnt_next")
	b.C("cnt_next", 8, netlist.OpAdd, "count", one)
	q := b.Seq("q", 8, "count")
	b.SWrite("wr", "S", "wr", q)
	d.AddFub("F", "m")
	opts := DefaultOptions()
	opts.LoopPAVF = loopPAVF
	a := mustAnalyze(t, d, opts)
	in := NewInputs()
	in.WritePorts[StructPort{"S", "wr"}] = 0.9
	return a, in
}

func TestLoopBoundaryInjection(t *testing.T) {
	a, in := loopFixture(t, 0.3)
	r, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	count := vtx(t, a, "F", "count")
	if a.Role(count) != RoleLoop {
		t.Fatalf("count role = %v", a.Role(count))
	}
	approx(t, r.AVF[count], 0.3, "loop node AVF")
	// The loop value ripples into the downstream pipeline: q's forward
	// estimate is the loop pAVF; backward is the write port (0.9).
	q := vtx(t, a, "F", "q")
	approx(t, r.AVF[q], 0.3, "downstream of loop")

	// Sweeping the loop pAVF changes both.
	a2, in2 := loopFixture(t, 0.7)
	r2, err := a2.Solve(in2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r2.AVF[vtx(t, a2, "F", "q")], 0.7, "downstream at 0.7")
	if a.NumLoopTerms() != 1 {
		t.Fatalf("loop terms = %d, want 1", a.NumLoopTerms())
	}
}

func TestControlRegisterDetection(t *testing.T) {
	d := netlist.NewDesign("ctrl")
	d.AddStructure("S", 4, 8)
	m := d.AddModule("m")
	b := netlist.Build(m)
	rd := b.SRead("rd", 8, "S", "rd")
	// Three detection paths: explicit class, name prefix, clock.
	b.CtrlReg("mode", 8, rd, 0) // class=ctrl (+cfgclk)
	b.Seq("cfg_thresh", 8, rd)  // name prefix
	ck := b.M.Add(&netlist.Node{Name: "slowreg", Kind: netlist.KindSeq, Width: 8,
		Inputs: []string{rd}, Clock: "cfgclk"})
	_ = ck
	plain := b.Seq("plain", 8, rd)
	b.SWrite("wr", "S", "wr", plain)
	// Use the control regs so they are not dangling.
	x := b.C("x", 8, netlist.OpAnd, "mode", "cfg_thresh")
	y := b.C("y", 8, netlist.OpAnd, x, "slowreg")
	q := b.Seq("q", 8, y)
	b.SWrite("wr2", "S", "wr2", q)
	d.AddFub("F", "m")
	a := mustAnalyze(t, d, DefaultOptions())

	for _, node := range []string{"mode", "cfg_thresh", "slowreg"} {
		v := vtx(t, a, "F", node)
		if a.Role(v) != RoleControl {
			t.Errorf("%s role = %v, want control", node, a.Role(v))
		}
	}
	if v := vtx(t, a, "F", "plain"); a.Role(v) != RoleNormal {
		t.Errorf("plain role = %v", a.Role(v))
	}

	in := NewInputs()
	in.ReadPorts[StructPort{"S", "rd"}] = 0.2
	in.WritePorts[StructPort{"S", "wr"}] = 0.15
	in.WritePorts[StructPort{"S", "wr2"}] = 0.4
	r, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	// Control registers themselves are 100% AVF.
	approx(t, r.AVF[vtx(t, a, "F", "mode")], 1.0, "ctrl reg AVF")
	// Logic fed by control regs: forward saturates to 1.0 through the
	// ctrl term; backward bound from wr2 applies.
	approx(t, r.AVF[vtx(t, a, "F", "q")], 0.4, "q")
	// rd is an ACE-measured port: per §4.2, measured values override
	// propagated estimates, so its AVF is its own pAVF_R.
	approx(t, r.AVF[vtx(t, a, "F", "rd")], 0.2, "rd uses measured port value")
	// 'plain' sits between the read port (0.2 forward) and wr (0.15
	// backward): MIN applies.
	approx(t, r.AVF[vtx(t, a, "F", "plain")], 0.15, "plain")
}

func TestDebugLogicStripped(t *testing.T) {
	d := netlist.NewDesign("dfx")
	d.AddStructure("S", 4, 4)
	m := d.AddModule("m")
	b := netlist.Build(m)
	rd := b.SRead("rd", 4, "S", "rd")
	q := b.Seq("q", 4, rd)
	b.SWrite("wr", "S", "wr", q)
	dbg := b.M.Add(&netlist.Node{Name: "dbg_snoop", Kind: netlist.KindSeq, Width: 4,
		Inputs: []string{q}, Class: netlist.ClassDebug})
	_ = dbg
	d.AddFub("F", "m")
	a := mustAnalyze(t, d, DefaultOptions())
	in := NewInputs()
	in.ReadPorts[StructPort{"S", "rd"}] = 0.5
	in.WritePorts[StructPort{"S", "wr"}] = 0.5
	r, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	v := vtx(t, a, "F", "dbg_snoop")
	if a.Role(v) != RoleDebug {
		t.Fatalf("role = %v", a.Role(v))
	}
	if r.AVF[v] != 0 {
		t.Fatalf("debug AVF = %v, want 0", r.AVF[v])
	}
	// Debug nodes do not drag q's backward estimate up: q feeds wr (0.5)
	// and the debug node (0) -> bwd = 0.5.
	approx(t, r.AVF[vtx(t, a, "F", "q")], 0.5, "q")
	// Debug bits are excluded from statistics.
	sum := r.Summarize()
	if sum.SeqBits != 4 { // only q
		t.Fatalf("SeqBits = %d, want 4", sum.SeqBits)
	}
}

func TestBoundaryPseudoStructures(t *testing.T) {
	d := netlist.NewDesign("bnd")
	m := d.AddModule("m")
	b := netlist.Build(m)
	in := b.In("ext_in", 4)
	q := b.Seq("q", 4, in)
	b.Out("ext_out", 4, q)
	d.AddFub("F", "m")
	opts := DefaultOptions()
	opts.PseudoPAVF = 0.25
	a := mustAnalyze(t, d, opts)
	r, err := a.Solve(NewInputs())
	if err != nil {
		t.Fatal(err)
	}
	// q: forward from the input pseudo-structure (0.25), backward from
	// the output pseudo-structure (0.25).
	approx(t, r.AVF[vtx(t, a, "F", "q")], 0.25, "q")
	v := vtx(t, a, "F", "ext_in")
	if a.Role(v) != RolePseudoIn {
		t.Fatalf("ext_in role = %v", a.Role(v))
	}
}

// multiFubDesign builds a 4-FUB chain with a join, a split, a loop and a
// control register to exercise the partitioned solver.
func multiFubDesign(t *testing.T) (*Analyzer, *Inputs) {
	t.Helper()
	d := netlist.NewDesign("multi")
	d.AddStructure("IN1", 8, 8)
	d.AddStructure("IN2", 8, 8)
	d.AddStructure("MID", 8, 8)
	d.AddStructure("OUT", 8, 8)

	src := d.AddModule("src")
	sb := netlist.Build(src)
	r1 := sb.SRead("rd1", 8, "IN1", "rd")
	r2 := sb.SRead("rd2", 8, "IN2", "rd")
	sb.Out("o1", 8, sb.Pipe("p1", 8, 2, r1))
	sb.Out("o2", 8, sb.Pipe("p2", 8, 3, r2))

	mixm := d.AddModule("mix")
	mb := netlist.Build(mixm)
	a1 := mb.In("a", 8)
	a2 := mb.In("b", 8)
	j := mb.C("j", 8, netlist.OpXor, a1, a2)
	mb.Out("o", 8, mb.Seq("jr", 8, j))
	mb.SWrite("mid_wr", "MID", "wr", "jr")

	loopm := d.AddModule("loopfub")
	lb := netlist.Build(loopm)
	li := lb.In("x", 8)
	one := lb.Const("one", 8, 1)
	lb.Seq("acc", 8, "acc_next")
	lb.C("acc_next", 8, netlist.OpAdd, "acc", one)
	mix2 := lb.C("mix2", 8, netlist.OpXor, li, "acc")
	lb.CtrlReg("cfg_gate", 8, "cfg_gate", 0)
	gated := lb.C("gated", 8, netlist.OpAnd, mix2, "cfg_gate")
	lb.Out("y", 8, lb.Seq("yr", 8, gated))

	sink := d.AddModule("sink")
	kb := netlist.Build(sink)
	ki := kb.In("z", 8)
	kb.SWrite("out_wr", "OUT", "wr", kb.Pipe("kp", 8, 2, ki))

	d.AddFub("SRC", "src")
	d.AddFub("MIX", "mix")
	d.AddFub("LOOP", "loopfub")
	d.AddFub("SINK", "sink")
	d.ConnectPorts("SRC", "o1", "MIX", "a")
	d.ConnectPorts("SRC", "o2", "MIX", "b")
	d.ConnectPorts("MIX", "o", "LOOP", "x")
	d.ConnectPorts("LOOP", "y", "SINK", "z")

	a := mustAnalyze(t, d, DefaultOptions())
	in := NewInputs()
	in.ReadPorts[StructPort{"IN1", "rd"}] = 0.12
	in.ReadPorts[StructPort{"IN2", "rd"}] = 0.05
	in.WritePorts[StructPort{"MID", "wr"}] = 0.14
	in.WritePorts[StructPort{"OUT", "wr"}] = 0.09
	return a, in
}

// TestPartitionedMatchesMonolithic is invariant E4 / §5.2: the relaxation
// converges to the monolithic fixpoint.
func TestPartitionedMatchesMonolithic(t *testing.T) {
	a, in := multiFubDesign(t)
	mono, err := a.Solve(in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	part, err := a.SolvePartitioned(in)
	if err != nil {
		t.Fatalf("SolvePartitioned: %v", err)
	}
	if !part.Converged {
		t.Fatalf("relaxation did not converge in %d iterations", part.Iterations)
	}
	if d := MaxAbsDiff(mono, part); d > 1e-9 {
		t.Fatalf("partitioned deviates from monolithic by %v", d)
	}
	if len(part.Trace) == 0 || len(part.Trace[0]) != 4 {
		t.Fatalf("trace malformed: %v", part.Trace)
	}
	// Values must cross one partition per iteration: with a 4-FUB chain,
	// convergence needs more than one iteration.
	if part.Iterations < 2 {
		t.Fatalf("iterations = %d, expected multi-iteration relaxation", part.Iterations)
	}
}

// TestConvergenceTraceMonotone: per-FUB averages never increase across
// iterations (values only refine downward from the conservative start).
func TestConvergenceTraceMonotone(t *testing.T) {
	a, in := multiFubDesign(t)
	part, err := a.SolvePartitioned(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(part.Trace); i++ {
		for f := range part.Trace[i] {
			if part.Trace[i][f] > part.Trace[i-1][f]+1e-12 {
				t.Fatalf("iteration %d FUB %d average rose: %v -> %v",
					i, f, part.Trace[i-1][f], part.Trace[i][f])
			}
		}
	}
}

// TestConservatismInvariants: final AVFs are within [0,1] and never exceed
// either one-sided estimate.
func TestConservatismInvariants(t *testing.T) {
	a, in := multiFubDesign(t)
	r, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < a.G.NumVerts(); v++ {
		avf := r.AVF[v]
		if avf < 0 || avf > 1 {
			t.Fatalf("%s AVF out of range: %v", a.G.Name(graph.VertexID(v)), avf)
		}
		x := r.Expr(graph.VertexID(v))
		if avf > x.FwdValue(r.Env)+1e-12 || avf > x.BwdValue(r.Env)+1e-12 {
			t.Fatalf("%s AVF exceeds an estimate", a.G.Name(graph.VertexID(v)))
		}
	}
}

// TestMonotonicityInInputs: raising a port pAVF never lowers any node AVF.
func TestMonotonicityInInputs(t *testing.T) {
	a, in := multiFubDesign(t)
	r1, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), r1.AVF...)
	in2 := NewInputs()
	for k, v := range in.ReadPorts {
		in2.ReadPorts[k] = v
	}
	for k, v := range in.WritePorts {
		in2.WritePorts[k] = v
	}
	in2.ReadPorts[StructPort{"IN1", "rd"}] = 0.5 // raised from 0.12
	if err := r1.Reevaluate(in2); err != nil {
		t.Fatal(err)
	}
	for v := range before {
		if r1.AVF[v] < before[v]-1e-12 {
			t.Fatalf("raising input lowered AVF at %s: %v -> %v",
				a.G.Name(graph.VertexID(v)), before[v], r1.AVF[v])
		}
	}
}

// TestSymbolicReevalMatchesFreshSolve: E8 — the closed forms evaluated
// under new inputs equal a from-scratch solve.
func TestSymbolicReevalMatchesFreshSolve(t *testing.T) {
	a, in := multiFubDesign(t)
	r, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	in2 := NewInputs()
	in2.ReadPorts[StructPort{"IN1", "rd"}] = 0.33
	in2.ReadPorts[StructPort{"IN2", "rd"}] = 0.21
	in2.WritePorts[StructPort{"MID", "wr"}] = 0.05
	in2.WritePorts[StructPort{"OUT", "wr"}] = 0.44
	if err := r.Reevaluate(in2); err != nil {
		t.Fatal(err)
	}
	fresh, err := a.Solve(in2)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(r, fresh); d > 1e-12 {
		t.Fatalf("closed-form reevaluation deviates by %v", d)
	}
}

func TestMissingPortPAVFFails(t *testing.T) {
	a, _ := multiFubDesign(t)
	_, err := a.Solve(NewInputs())
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("want missing-port error, got %v", err)
	}
}

func TestDefaultPortPAVF(t *testing.T) {
	d := netlist.NewDesign("dflt")
	d.AddStructure("S", 4, 4)
	m := d.AddModule("m")
	b := netlist.Build(m)
	q := b.Seq("q", 4, b.SRead("rd", 4, "S", "rd"))
	b.SWrite("wr", "S", "wr", q)
	d.AddFub("F", "m")
	opts := DefaultOptions()
	opts.DefaultPortPAVF = 0.5
	a := mustAnalyze(t, d, opts)
	r, err := a.Solve(NewInputs())
	if err != nil {
		t.Fatalf("Solve with defaults: %v", err)
	}
	approx(t, r.AVF[vtx(t, a, "F", "q")], 0.5, "q with default port pAVF")
}

func TestOptionsValidation(t *testing.T) {
	d := netlist.NewDesign("v")
	m := d.AddModule("m")
	b := netlist.Build(m)
	b.Out("o", 1, b.Seq("r", 1, b.In("i", 1)))
	d.AddFub("F", "m")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	fd, _ := netlist.Flatten(d)
	g, _ := graph.Build(fd)
	bad := DefaultOptions()
	bad.LoopPAVF = 1.5
	if _, err := NewAnalyzer(g, bad); err == nil {
		t.Fatal("accepted LoopPAVF > 1")
	}
	bad = DefaultOptions()
	bad.PseudoPAVF = -0.1
	if _, err := NewAnalyzer(g, bad); err == nil {
		t.Fatal("accepted PseudoPAVF < 0")
	}
}

func TestSummaryAndFubStats(t *testing.T) {
	a, in := multiFubDesign(t)
	r, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Summarize()
	if s.SeqBits == 0 || s.NodeBits <= s.SeqBits {
		t.Fatalf("bad bit counts: %+v", s)
	}
	if s.LoopSeqBits != 8 { // acc
		t.Fatalf("LoopSeqBits = %d, want 8", s.LoopSeqBits)
	}
	if s.CtrlBits != 8 { // cfg_gate
		t.Fatalf("CtrlBits = %d, want 8", s.CtrlBits)
	}
	if s.WeightedSeqAVF <= 0 || s.WeightedSeqAVF > 1 {
		t.Fatalf("WeightedSeqAVF = %v", s.WeightedSeqAVF)
	}
	if s.VisitedFraction < 0.9 {
		t.Fatalf("VisitedFraction = %v", s.VisitedFraction)
	}
	stats := r.FubStats()
	if len(stats) != 4 {
		t.Fatalf("FubStats len = %d", len(stats))
	}
	byNode := r.SeqAVFByNode()
	if _, ok := byNode["LOOP/acc"]; !ok {
		t.Fatalf("SeqAVFByNode missing LOOP/acc: %v", byNode)
	}
	approx(t, byNode["LOOP/acc"], 0.3, "loop node avg")
}

func TestLoopOverrides(t *testing.T) {
	a, in := loopFixture(t, 0.3)
	// Find the loop term name.
	count := vtx(t, a, "F", "count")
	if a.Role(count) != RoleLoop {
		t.Fatal("fixture changed")
	}
	opts := a.Opts
	opts.LoopOverrides = map[string]float64{"F/count": 0.85}
	ao, err := NewAnalyzer(a.G, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ao.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.AVF[vtx(t, ao, "F", "count")], 0.85, "override applied")
	// Downstream nodes see the override through the walk.
	approx(t, r.AVF[vtx(t, ao, "F", "q")], 0.85, "override propagates")
	// Unknown keys fall back to LoopPAVF; out-of-range values clamp.
	opts.LoopOverrides = map[string]float64{"F/other": 0.9, "F/count": 1.7}
	ao2, err := NewAnalyzer(a.G, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ao2.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r2.AVF[vtx(t, ao2, "F", "count")], 1.0, "clamped override")
}

func TestExportJSON(t *testing.T) {
	a, in := multiFubDesign(t)
	r, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := r.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	ex := r.Export(true)
	if ex.Design == "" || ex.SeqBits == 0 || len(ex.Fubs) != 4 || len(ex.Nodes) == 0 {
		t.Fatalf("export incomplete: %+v", ex)
	}
	for _, n := range ex.Nodes {
		if n.AVF < 0 || n.AVF > 1 {
			t.Fatalf("%s exported AVF %v", n.Node, n.AVF)
		}
		if math.Abs(n.SDC+n.DUE+n.DCE-n.AVF) > 1e-9 {
			t.Fatalf("%s components do not sum: %+v", n.Node, n)
		}
		if n.Equation == "" {
			t.Fatalf("%s missing equation", n.Node)
		}
	}
	// Without equations the field is omitted.
	ex2 := r.Export(false)
	if ex2.Nodes[0].Equation != "" {
		t.Fatal("equation present without request")
	}
}

func TestPseudoOverrides(t *testing.T) {
	d := netlist.NewDesign("bnd2")
	m := d.AddModule("m")
	b := netlist.Build(m)
	inA := b.In("ext_a", 4)
	inB := b.In("ext_b", 4)
	qa := b.Seq("qa", 4, inA)
	qb := b.Seq("qb", 4, inB)
	b.Out("oa", 4, qa)
	b.Out("ob", 4, qb)
	d.AddFub("F", "m")
	opts := DefaultOptions()
	opts.PseudoPAVF = 0.5
	opts.PseudoOverrides = map[string]float64{
		"EXT:F.ext_a": 0.05, // a quiet external interface
		"EXT:F.ob":    0.10, // a lightly consumed output
	}
	a := mustAnalyze(t, d, opts)
	r, err := a.Solve(NewInputs())
	if err != nil {
		t.Fatal(err)
	}
	// qa: fwd 0.05 (override), bwd 0.5 (default) -> 0.05.
	approx(t, r.AVF[vtx(t, a, "F", "qa")], 0.05, "qa")
	// qb: fwd 0.5 (default), bwd 0.10 (override) -> 0.10.
	approx(t, r.AVF[vtx(t, a, "F", "qb")], 0.10, "qb")
}

// TestSolveObservability runs both solvers with a wired obs.Registry and
// asserts the expected phase spans and non-zero walk counters land in the
// snapshot — the contract the CLIs' -metrics/-trace flags rely on.
func TestSolveObservability(t *testing.T) {
	a, in := multiFubDesign(t)
	reg := obs.New()
	opts := a.Opts
	opts.Obs = reg
	a2, err := NewAnalyzer(a.G, opts)
	if err != nil {
		t.Fatalf("NewAnalyzer: %v", err)
	}
	if _, err := a2.Solve(in); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	part, err := a2.SolvePartitioned(in)
	if err != nil {
		t.Fatalf("SolvePartitioned: %v", err)
	}

	snap := reg.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("root spans = %d, want 2 (solve + solve_partitioned)", len(snap.Spans))
	}
	phases := func(s []obs.SpanSnapshot) map[string]int {
		out := make(map[string]int)
		for _, c := range s {
			out[c.Name]++
		}
		return out
	}
	mono := snap.Spans[0]
	if mono.Name != "solve" {
		t.Fatalf("first root = %q, want solve", mono.Name)
	}
	mp := phases(mono.Children)
	for _, want := range []string{"env", "fwd", "bwd", "finish"} {
		if mp[want] != 1 {
			t.Fatalf("solve phases = %v, missing %q", mp, want)
		}
	}
	partSpan := snap.Spans[1]
	if partSpan.Name != "solve_partitioned" {
		t.Fatalf("second root = %q, want solve_partitioned", partSpan.Name)
	}
	pp := phases(partSpan.Children)
	if pp["iteration"] != part.Iterations {
		t.Fatalf("iteration spans = %d, want %d", pp["iteration"], part.Iterations)
	}
	if pp["env"] != 1 || pp["finish"] != 1 {
		t.Fatalf("partitioned phases = %v", pp)
	}
	// Convergence trace folded into iteration span attributes.
	var sawTrace bool
	for _, c := range partSpan.Children {
		if c.Name == "iteration" {
			if _, ok := c.Attrs["max_delta"]; !ok {
				t.Fatalf("iteration span missing max_delta: %v", c.Attrs)
			}
			if _, ok := c.Attrs["fub_avg_pavf"]; ok {
				sawTrace = true
			}
		}
	}
	if !sawTrace {
		t.Fatal("no iteration span carries fub_avg_pavf")
	}

	for _, name := range []string{
		"core.fwd_vertices", "core.bwd_vertices", "core.union_ops", "core.iterations", "core.top_shortcircuits",
	} {
		if snap.Counters[name] <= 0 {
			t.Fatalf("counter %s = %d, want > 0 (all: %v)", name, snap.Counters[name], snap.Counters)
		}
	}
	if snap.Counters["core.solves"] != 2 {
		t.Fatalf("core.solves = %d, want 2", snap.Counters["core.solves"])
	}
	if h := snap.Histograms["core.iter_delta"]; h.Count != uint64(part.Iterations) {
		t.Fatalf("iter_delta observations = %d, want %d", h.Count, part.Iterations)
	}

	// The edit path runs the same relaxation and must report it the same
	// way: one iteration span per iteration with both convergence attrs,
	// one iter_delta observation each, and one trace row each.
	h := buildEditHarness(t, 1, graphtest.EditAddFlop)
	ireg := obs.New()
	iopts := h.aNew.Opts
	iopts.Obs = ireg
	ai, err := NewAnalyzer(h.aNew.G, iopts)
	if err != nil {
		t.Fatalf("NewAnalyzer: %v", err)
	}
	incr, st, err := ai.ResolveIncremental(randPortInputs(ai, h.inSeed), h.prior)
	if err != nil {
		t.Fatalf("ResolveIncremental: %v", err)
	}
	if st.FubsDirty == 0 || incr.Iterations < 1 {
		t.Fatalf("edit did not reach the relaxation: %+v", st)
	}
	isnap := ireg.Snapshot()
	if len(isnap.Spans) != 1 || isnap.Spans[0].Name != "solve_incremental" {
		t.Fatalf("incremental root spans = %v, want one solve_incremental", isnap.Spans)
	}
	iters := 0
	for _, c := range isnap.Spans[0].Children {
		if c.Name != "iteration" {
			continue
		}
		iters++
		if _, ok := c.Attrs["max_delta"]; !ok {
			t.Fatalf("incremental iteration span missing max_delta: %v", c.Attrs)
		}
		if _, ok := c.Attrs["fub_avg_pavf"]; !ok {
			t.Fatalf("incremental iteration span missing fub_avg_pavf: %v", c.Attrs)
		}
	}
	if iters != incr.Iterations {
		t.Fatalf("incremental iteration spans = %d, want %d", iters, incr.Iterations)
	}
	if hd := isnap.Histograms["core.iter_delta"]; hd.Count != uint64(incr.Iterations) {
		t.Fatalf("incremental iter_delta observations = %d, want %d", hd.Count, incr.Iterations)
	}
	if len(incr.Trace) != incr.Iterations {
		t.Fatalf("incremental trace rows = %d, want %d", len(incr.Trace), incr.Iterations)
	}
	for i, row := range incr.Trace {
		if len(row) != len(ai.G.FubNames) {
			t.Fatalf("incremental trace row %d has %d entries, want %d", i, len(row), len(ai.G.FubNames))
		}
	}
	if got := isnap.Counters["solve.fubs_dirty"]; got != int64(st.FubsDirty) {
		t.Fatalf("solve.fubs_dirty = %d, want %d", got, st.FubsDirty)
	}
	if got := isnap.Counters["solve.fubs_reused"]; got != int64(st.FubsReused) || st.FubsReused == 0 {
		t.Fatalf("solve.fubs_reused = %d, want %d (> 0)", got, st.FubsReused)
	}
	if got := isnap.Histograms["solve.incremental_seconds"].Count; got != 1 {
		t.Fatalf("solve.incremental_seconds observations = %d, want 1", got)
	}
}

// TestMaxAbsDiffMismatched is the guard against comparing results of
// differing vertex counts: NaN, not a panic.
func TestMaxAbsDiffMismatched(t *testing.T) {
	a, in := multiFubDesign(t)
	r1, err := a.Solve(in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	b, in2 := figure7(t)
	r2, err := b.Solve(in2)
	if err != nil {
		t.Fatalf("Solve fig7: %v", err)
	}
	if d := MaxAbsDiff(r1, r2); !math.IsNaN(d) {
		t.Fatalf("MaxAbsDiff over mismatched results = %v, want NaN", d)
	}
	if d := MaxAbsDiff(r1, r1); d != 0 {
		t.Fatalf("self diff = %v, want 0", d)
	}
}

// TestReevaluateRejectsForeignInputs: re-evaluating closed forms against
// inputs from a different design must fail loudly, not silently default
// the stray ports.
func TestReevaluateRejectsForeignInputs(t *testing.T) {
	a, in := multiFubDesign(t)
	r, err := a.Solve(in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	_, fig7In := figure7(t)
	err = r.Reevaluate(fig7In)
	if err == nil {
		t.Fatal("Reevaluate accepted inputs for a different design")
	}
	if !strings.Contains(err.Error(), "S1") {
		t.Fatalf("error does not name a stray port: %v", err)
	}
	// The result is untouched by the rejected call and keeps working.
	if err := r.Reevaluate(in); err != nil {
		t.Fatalf("Reevaluate after rejection: %v", err)
	}
}

// TestReevaluateRejectsMismatchedResult: a Result whose equation vector
// no longer matches its analyzer's design (e.g. assembled by hand or
// retargeted at another analyzer) must be refused.
func TestReevaluateRejectsMismatchedResult(t *testing.T) {
	a, in := multiFubDesign(t)
	b, fig7In := figure7(t)
	r2, err := b.Solve(fig7In)
	if err != nil {
		t.Fatalf("Solve fig7: %v", err)
	}
	// Retarget fig7's result at the multi-FUB analyzer: vertex counts
	// disagree, so the shape check must fire before any evaluation.
	r2.Analyzer = a
	err = r2.Reevaluate(in)
	if err == nil {
		t.Fatal("Reevaluate accepted a result/analyzer vertex-count mismatch")
	}
	if !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("unexpected error: %v", err)
	}
}
