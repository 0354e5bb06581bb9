// Package core implements SART, the Sequential AVF Resolution Tool — the
// primary contribution of Raasch et al. (MICRO-48 2015).
//
// SART takes (1) a bit-level node graph extracted from RTL and (2) port-AVF
// measurements from an ACE-instrumented performance model, and computes a
// statistically meaningful AVF for every sequential bit in the design
// without simulating the RTL:
//
//   - forward walks propagate read-port pAVFs "down" the graph (§4.1.1),
//   - backward walks propagate write-port pAVFs "up" the graph (§4.1.2),
//   - joins take the set union of incoming values (numerically a capped
//     sum), splits copy, and each node resolves to the MIN of its forward
//     and backward conservative estimates (Table 1),
//   - configuration control registers are detected (by class, name, or
//     driving clock) and pinned to pAVF_R = 100% with no write-side walk,
//   - loop sequentials (SCC members) become loop-boundary nodes with an
//     injected static pAVF (§4.3; 0.3 per the Figure 8 study),
//   - debug/DFX logic is stripped from the analysis, and undriven design
//     boundary ports attach to pseudo-structures (§5.1),
//   - a FUB-partitioned relaxation reproduces the paper's operational tool
//     flow (per-FUB walks plus a FUBIO merge each iteration, §5.2),
//   - the incremental (ECO) re-solve runs Solve's own walk seeded from a
//     prior solve, recomputing only what the FUBs an edit dirtied change,
//   - every node ends with a closed-form symbolic AVF equation that can be
//     re-evaluated against fresh pAVF measurements without re-walking.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavf"
)

// Options configure an Analyzer.
type Options struct {
	// LoopPAVF is the static pAVF injected at loop-boundary nodes
	// (§4.3). The paper selects 0.3 after the Figure 8 sweep.
	LoopPAVF float64
	// PseudoPAVF is the pAVF of the boundary pseudo-structures that stand
	// in for circuits outside the RTL under analysis. 1.0 is fully
	// conservative (equivalent to leaving the boundary unwalked).
	PseudoPAVF float64
	// ControlRegPrefixes lists node-name prefixes identifying
	// configuration control registers (in addition to ClassControl).
	ControlRegPrefixes []string
	// ControlRegClocks lists clock names identifying control registers.
	ControlRegClocks []string
	// Iterations bounds the FUB relaxation that SolvePartitioned runs.
	// The paper found 20 sufficient for a Xeon-class design. Solve and
	// ResolveIncremental walk once and ignore it.
	Iterations int
	// DefaultPortPAVF, when non-negative, substitutes for structure ports
	// missing from the Inputs tables instead of failing. Use -1 (the
	// DefaultOptions value) to require complete inputs.
	DefaultPortPAVF float64
	// LoopOverrides assigns per-node loop-boundary pAVFs (keyed
	// "fub/node"), taking precedence over LoopPAVF. This implements the
	// paper's §4.3 solution 2: loop retention probabilities measured by
	// targeted RTL simulation are injected case by case.
	LoopOverrides map[string]float64
	// PseudoOverrides assigns pAVFs to individual boundary
	// pseudo-structure ports (keyed "EXT:FUB.port", as reported in the
	// closed forms), taking precedence over PseudoPAVF — §5.1's
	// pseudo-structures "with its own pAVF_R and pAVF_W values".
	PseudoOverrides map[string]float64
	// Obs receives solver telemetry: phase spans (env/fwd/bwd/finish,
	// per-iteration relaxation spans) and walk counters (vertices visited,
	// union ops, top-set short-circuits). nil disables instrumentation at
	// the cost of one nil check per phase.
	Obs *obs.Registry
}

// DefaultOptions returns the paper's operating point.
func DefaultOptions() Options {
	return Options{
		LoopPAVF:           0.3,
		PseudoPAVF:         1.0,
		ControlRegPrefixes: []string{"cfg_"},
		ControlRegClocks:   []string{"cfgclk"},
		Iterations:         20,
		DefaultPortPAVF:    -1,
	}
}

// Role classifies how SART treats each bit vertex.
type Role uint8

const (
	// RoleNormal bits receive propagated forward/backward estimates.
	RoleNormal Role = iota
	// RoleStructPort bits belong to structure read/write ports: walk
	// sources and sinks carrying measured pAVFs.
	RoleStructPort
	// RoleControl bits are configuration control registers: pAVF_R
	// pinned to 100%, write-side walk omitted (contributes 0).
	RoleControl
	// RoleLoop bits are sequentials inside feedback loops: injected
	// static pAVF in both directions.
	RoleLoop
	// RoleConst bits are hardwired constants: not fault sites; forward
	// contribution is conservatively ⊤.
	RoleConst
	// RoleDebug bits are stripped DFX logic: excluded from analysis and
	// statistics, contributing nothing in either direction.
	RoleDebug
	// RolePseudoIn bits are undriven FUB inputs fed by the boundary
	// pseudo-structure.
	RolePseudoIn
)

func (r Role) String() string {
	switch r {
	case RoleNormal:
		return "normal"
	case RoleStructPort:
		return "structport"
	case RoleControl:
		return "control"
	case RoleLoop:
		return "loop"
	case RoleConst:
		return "const"
	case RoleDebug:
		return "debug"
	case RolePseudoIn:
		return "pseudoin"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// StructPort names one structure port.
type StructPort struct {
	Struct string
	Port   string
}

func (p StructPort) String() string { return p.Struct + "." + p.Port }

// Inputs carries the measurements produced by the ACE performance model:
// per-port pAVFs (Equation-style ACE reads or writes per cycle) and
// per-structure AVFs (Equation 3), the latter used for the structure bits
// themselves and for the pre-sequential-AVF proxy model.
type Inputs struct {
	ReadPorts  map[StructPort]float64
	WritePorts map[StructPort]float64
	StructAVF  map[string]float64
}

// NewInputs returns empty input tables.
func NewInputs() *Inputs {
	return &Inputs{
		ReadPorts:  make(map[StructPort]float64),
		WritePorts: make(map[StructPort]float64),
		StructAVF:  make(map[string]float64),
	}
}

// Equal reports whether both input tables carry exactly the same
// measurements (same ports, bit-identical values). A result already
// evaluated against in needs no re-evaluation for an Equal table —
// the artifact store's warm-start path relies on this.
func (in *Inputs) Equal(other *Inputs) bool {
	if in == nil || other == nil {
		return in == other
	}
	return equalPortTable(in.ReadPorts, other.ReadPorts) &&
		equalPortTable(in.WritePorts, other.WritePorts) &&
		equalStructTable(in.StructAVF, other.StructAVF)
}

// equalPortTable compares one per-port measurement table. Factored out of
// Equal so callers deciding invalidation granularity (the incremental
// re-solve path) compare exactly what the warm-start path compares:
// measurement identity, never structure.
func equalPortTable(a, b map[StructPort]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func equalStructTable(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// Analyzer binds a bit graph to SART options, precomputing vertex roles,
// the term universe, walk sources, and the topological schedule. One
// Analyzer serves any number of Solve calls with different Inputs.
type Analyzer struct {
	G    *graph.Graph
	Opts Options

	roles []Role
	// fwdFixed/bwdFixed mark vertices whose contribution in that
	// direction is a fixed source set (fwdSrc/bwdSrc, slots in srcs)
	// rather than a propagated value; ∅ means "contributes nothing".
	fwdFixed []bool
	bwdFixed []bool
	fwdSrc   []int32
	bwdSrc   []int32
	// srcs holds ∅, {⊤} and every source singleton. It is frozen once
	// NewAnalyzer returns; each solve interns into its own Extend child.
	srcs *pavf.SetTable

	universe *pavf.Universe
	// readTerm/writeTerm map structure ports to their terms.
	readTerm  map[StructPort]pavf.TermID
	writeTerm map[StructPort]pavf.TermID
	loopTerms []pavf.TermID // term per loop node (indexed separately)
	ctrlTerm  pavf.TermID
	pseudoIn  map[graph.VertexID]pavf.TermID // per undriven input port node
	pseudoOut map[graph.VertexID]pavf.TermID // per unconsumed output port node

	// topo orders the vertices with a propagated forward side so every
	// edge between two of them runs forward; bwdTopo does the same for a
	// propagated backward side, and the backward walk reads it in
	// reverse. Both are computed once, in NewAnalyzerFrom.
	topo, bwdTopo []graph.VertexID

	// exts is each FUB's contiguous vertex range, indexed like G.FubNames.
	exts []fubExtent
	// fubFps are the per-FUB identity hashes (FubFingerprints), and
	// fingerprint the design hash derived from them (Fingerprint).
	fubFps      []uint64
	fingerprint uint64

	// buildEnv's precomputed shape, built lazily on first use: the
	// workload-independent terms (Top, control, loop, pseudo) prefilled in
	// a template the per-workload environment is copied from, and the
	// port->term maps flattened into slices sorted by port so the
	// per-workload fill is a linear scan with stable error order.
	envOnce     sync.Once
	envTemplate pavf.Env
	readBind    []portBind
	writeBind   []portBind

	// Per-FUB topological schedules and the visited bitmap are
	// structural properties of the graph — independent of inputs — so
	// they are computed once and shared by every subsequent solve on
	// this analyzer. A FUB's schedule is built the first time
	// SolvePartitioned walks that FUB, so an analyzer that only runs
	// Solve and ResolveIncremental never builds one.
	scheds []fubSchedule

	visitedOnce sync.Once
	visitedBits []bool

	// The statistics reduction layout (SummaryLayout), also structural.
	layoutOnce sync.Once
	layout     *SummaryLayout
}

// portBind is one structure port's term slot in the flattened form the
// environment builder iterates.
type portBind struct {
	sp StructPort
	t  pavf.TermID
}

// NewAnalyzer prepares g for SART analysis.
func NewAnalyzer(g *graph.Graph, opts Options) (*Analyzer, error) {
	return NewAnalyzerFrom(g, opts, nil)
}

// NewAnalyzerFrom is NewAnalyzer carrying FUB fingerprints over from
// prior, the analyzer of an earlier version of the design: a FUB whose
// nodes, roles and FUBIO boundary are unchanged keeps its prior
// fingerprint instead of being rehashed (keptFingerprints). Everything
// else, the topological order included, is computed over the whole
// graph. prior may be nil; it is only read.
func NewAnalyzerFrom(g *graph.Graph, opts Options, prior *Analyzer) (*Analyzer, error) {
	if opts.Iterations <= 0 {
		opts.Iterations = 20
	}
	if opts.LoopPAVF < 0 || opts.LoopPAVF > 1 {
		return nil, fmt.Errorf("core: LoopPAVF %v out of [0,1]", opts.LoopPAVF)
	}
	if opts.PseudoPAVF < 0 || opts.PseudoPAVF > 1 {
		return nil, fmt.Errorf("core: PseudoPAVF %v out of [0,1]", opts.PseudoPAVF)
	}
	a := &Analyzer{
		G:         g,
		Opts:      opts,
		universe:  pavf.NewUniverse(),
		readTerm:  make(map[StructPort]pavf.TermID),
		writeTerm: make(map[StructPort]pavf.TermID),
		pseudoIn:  make(map[graph.VertexID]pavf.TermID),
		pseudoOut: make(map[graph.VertexID]pavf.TermID),
	}
	a.ctrlTerm = a.universe.Intern(pavf.Term{Kind: pavf.KindControlReg, Name: "CTRL"})
	a.classify()
	a.buildSources()
	topo, err := g.TopoOrder(func(v graph.VertexID) bool { return a.fwdFixed[v] })
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	bwdTopo, err := g.TopoOrder(func(v graph.VertexID) bool { return a.bwdFixed[v] })
	if err != nil {
		return nil, fmt.Errorf("core: backward order: %w", err)
	}
	a.topo, a.bwdTopo = topo, bwdTopo
	a.exts = a.fubExtents()
	a.scheds = make([]fubSchedule, len(a.exts))
	a.fubFps = a.computeFubFingerprints(prior)
	a.fingerprint = a.computeFingerprint()
	return a, nil
}

// Universe exposes the term universe (for formatting closed forms).
func (a *Analyzer) Universe() *pavf.Universe { return a.universe }

// Fingerprint is a stable hash of everything that determines the shape of
// the closed-form equations: the design's vertices, their roles, the edge
// structure, and the role-affecting options. Two analyzers with equal
// fingerprints produce identical closed forms for any Inputs, so the fingerprint
// keys compiled-plan caches (internal/sweep) and guards Reevaluate against
// cross-design misuse.
func (a *Analyzer) Fingerprint() uint64 { return a.fingerprint }

// BuildEnv maps Inputs onto the term universe, producing the numeric
// environment the closed forms evaluate under. Exposed for the batch sweep
// engine (internal/sweep), which re-evaluates compiled plans against many
// environments without re-walking.
func (a *Analyzer) BuildEnv(in *Inputs) (pavf.Env, error) { return a.buildEnv(in) }

// CheckInputs verifies that in plausibly belongs to this design: every
// structure port it names must exist in the analyzed graph. A table carrying
// ports the design does not have was measured for (or bound to) a different
// design; applying it silently would leave this design's own ports at their
// defaults while the stray measurements are dropped on the floor. With
// several stray ports the lexicographically smallest is named, so the
// error is stable across runs rather than following map iteration order.
func (a *Analyzer) CheckInputs(in *Inputs) error {
	var stray StructPort
	kind := ""
	for sp := range in.ReadPorts {
		if _, ok := a.readTerm[sp]; !ok && (kind == "" || sp.String() < stray.String()) {
			stray, kind = sp, "read"
		}
	}
	for sp := range in.WritePorts {
		if _, ok := a.writeTerm[sp]; !ok && (kind == "" || sp.String() < stray.String()) {
			stray, kind = sp, "write"
		}
	}
	if kind != "" {
		return fmt.Errorf("core: inputs reference %s port %s, which design %q does not have", kind, stray, a.G.Design.Name)
	}
	return nil
}

// Role returns the role assigned to vertex v.
func (a *Analyzer) Role(v graph.VertexID) Role { return a.roles[v] }

// isControlReg applies the paper's §5.1 detection: explicit class, node
// name prefix, or driving clock.
func (a *Analyzer) isControlReg(n *netlist.Node) bool {
	if n.Kind != netlist.KindSeq {
		return false
	}
	if n.Class == netlist.ClassControl {
		return true
	}
	base := n.Name
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	for _, p := range a.Opts.ControlRegPrefixes {
		if strings.HasPrefix(base, p) {
			return true
		}
	}
	for _, c := range a.Opts.ControlRegClocks {
		if n.Clock != "" && n.Clock == c {
			return true
		}
	}
	return false
}

func (a *Analyzer) classify() {
	n := a.G.NumVerts()
	a.roles = make([]Role, n)
	var node *netlist.Node
	ctrl := false
	for v := 0; v < n; v++ {
		vx := &a.G.Verts[v]
		if vx.Node != node {
			// A node's bits are contiguous: test its name and clock once.
			node = vx.Node
			ctrl = a.isControlReg(node)
		}
		switch {
		case node.Class == netlist.ClassDebug:
			a.roles[v] = RoleDebug
		case node.Kind == netlist.KindStructRead || node.Kind == netlist.KindStructWrite:
			a.roles[v] = RoleStructPort
		case ctrl:
			a.roles[v] = RoleControl
		case node.Kind == netlist.KindSeq && vx.InLoop:
			a.roles[v] = RoleLoop
		case node.Kind == netlist.KindConst:
			a.roles[v] = RoleConst
		case node.Kind == netlist.KindInput && !a.G.DrivenInputs[graph.VertexID(v)]:
			a.roles[v] = RolePseudoIn
		default:
			a.roles[v] = RoleNormal
		}
	}
}

// buildSources assigns fixed forward/backward contributions per role.
func (a *Analyzer) buildSources() {
	n := a.G.NumVerts()
	a.fwdFixed = make([]bool, n)
	a.bwdFixed = make([]bool, n)
	a.fwdSrc = make([]int32, n)
	a.bwdSrc = make([]int32, n)
	a.srcs = pavf.NewSetTable()
	singleton := func(t pavf.TermID) int32 { return a.srcs.Intern([]pavf.TermID{t}) }
	loopTermOf := make(map[*netlist.Node]pavf.TermID)
	// A structure-port or boundary node names one term for all its
	// bits (termNode's term, singleton set nodeSet): intern it once,
	// at the node's first such bit, as a per-bit intern would.
	var (
		termNode *netlist.Node
		nodeTerm pavf.TermID
		nodeSet  int32
	)

	for v := 0; v < n; v++ {
		vx := &a.G.Verts[v]
		node := vx.Node
		id := graph.VertexID(v)
		switch a.roles[v] {
		case RoleStructPort:
			if node != termNode {
				sp := StructPort{Struct: node.Struct, Port: node.Port}
				if node.Kind == netlist.KindStructRead {
					nodeTerm = a.universe.Intern(pavf.Term{Kind: pavf.KindReadPort, Name: sp.String()})
					a.readTerm[sp] = nodeTerm
				} else {
					nodeTerm = a.universe.Intern(pavf.Term{Kind: pavf.KindWritePort, Name: sp.String()})
					a.writeTerm[sp] = nodeTerm
				}
				termNode, nodeSet = node, singleton(nodeTerm)
			}
			a.fwdFixed[v], a.fwdSrc[v] = true, nodeSet
			a.bwdFixed[v], a.bwdSrc[v] = true, nodeSet
		case RoleControl:
			// pAVF_R = 100% forward; write-side walk omitted: the
			// backward contribution through a control register is 0.
			a.fwdFixed[v], a.fwdSrc[v] = true, singleton(a.ctrlTerm)
			a.bwdFixed[v], a.bwdSrc[v] = true, pavf.EmptySlot
		case RoleLoop:
			term, ok := loopTermOf[node]
			if !ok {
				term = a.universe.Intern(pavf.Term{Kind: pavf.KindLoop, Name: a.loopName(id)})
				loopTermOf[node] = term
				a.loopTerms = append(a.loopTerms, term)
			}
			set := singleton(term)
			a.fwdFixed[v], a.fwdSrc[v] = true, set
			a.bwdFixed[v], a.bwdSrc[v] = true, set
		case RoleConst:
			// A constant is not a fault site, but logic it feeds can be
			// corrupted whenever downstream consumption is ACE; without
			// source information we stay conservative (⊤) forward.
			a.fwdFixed[v], a.fwdSrc[v] = true, pavf.TopSlot
			// No preds exist; backward fixing is unnecessary but cheap.
			a.bwdFixed[v], a.bwdSrc[v] = true, pavf.EmptySlot
		case RoleDebug:
			a.fwdFixed[v], a.fwdSrc[v] = true, pavf.EmptySlot
			a.bwdFixed[v], a.bwdSrc[v] = true, pavf.EmptySlot
		case RolePseudoIn:
			if node != termNode {
				nodeTerm = a.universe.Intern(pavf.Term{Kind: pavf.KindPseudo, Name: a.portName(id)})
				termNode, nodeSet = node, singleton(nodeTerm)
			}
			a.pseudoIn[id] = nodeTerm
			a.fwdFixed[v], a.fwdSrc[v] = true, nodeSet
		}
		// Unconsumed FUB outputs additionally act as backward pseudo
		// sources, regardless of role.
		if node.Kind == netlist.KindOutput && a.roles[v] == RoleNormal && !a.G.ConsumedOutputs[id] {
			if node != termNode {
				nodeTerm = a.universe.Intern(pavf.Term{Kind: pavf.KindPseudo, Name: a.portName(id)})
				termNode, nodeSet = node, singleton(nodeTerm)
			}
			a.pseudoOut[id] = nodeTerm
			a.bwdFixed[v] = true
			a.bwdSrc[v] = nodeSet
		}
	}
}

// loopName labels a loop-boundary node's term: all bits of the node share
// one term (joins of distinct loop nodes still sum).
func (a *Analyzer) loopName(v graph.VertexID) string {
	vx := &a.G.Verts[v]
	return a.G.FubNames[vx.Fub] + "/" + vx.Node.Name
}

// portName labels a boundary pseudo-structure term for a FUB port node.
func (a *Analyzer) portName(v graph.VertexID) string {
	vx := &a.G.Verts[v]
	return "EXT:" + a.G.FubNames[vx.Fub] + "." + vx.Node.Name
}

// envPrep builds the workload-independent half of the environment once:
// the template carries Top, the control term, and every loop and pseudo
// term (with their Options overrides applied exactly as the per-workload
// builder used to), and the port->term maps are flattened into sorted
// slices so per-workload fills touch no map iterators and report the
// lexicographically first failing port, matching CheckInputs' stability.
func (a *Analyzer) envPrep() {
	a.envOnce.Do(func() {
		env := pavf.NewEnv(a.universe)
		env.Set(a.ctrlTerm, 1.0)
		for _, t := range a.loopTerms {
			v := a.Opts.LoopPAVF
			if ov, ok := a.Opts.LoopOverrides[a.universe.Term(t).Name]; ok {
				if ov < 0 {
					ov = 0
				}
				if ov > 1 {
					ov = 1
				}
				v = ov
			}
			env.Set(t, v)
		}
		setPseudo := func(t pavf.TermID) {
			v := a.Opts.PseudoPAVF
			if ov, ok := a.Opts.PseudoOverrides[a.universe.Term(t).Name]; ok {
				v = ov
			}
			env.Set(t, v)
		}
		for _, t := range a.pseudoIn {
			setPseudo(t)
		}
		for _, t := range a.pseudoOut {
			setPseudo(t)
		}
		flatten := func(m map[StructPort]pavf.TermID) []portBind {
			bs := make([]portBind, 0, len(m))
			for sp, t := range m {
				bs = append(bs, portBind{sp, t})
			}
			sort.Slice(bs, func(i, j int) bool { return bs[i].sp.String() < bs[j].sp.String() })
			return bs
		}
		a.readBind = flatten(a.readTerm)
		a.writeBind = flatten(a.writeTerm)
		// With a default port pAVF the unmeasured ports are also workload
		// independent: prefill them (Set clamps, as the per-port fill
		// would), so CheckedEnv's fast pass only touches measured ports.
		if a.Opts.DefaultPortPAVF >= 0 {
			for _, b := range a.readBind {
				env.Set(b.t, a.Opts.DefaultPortPAVF)
			}
			for _, b := range a.writeBind {
				env.Set(b.t, a.Opts.DefaultPortPAVF)
			}
		}
		a.envTemplate = env
	})
}

// buildEnv maps Inputs onto the term universe: the precomputed template
// supplies the workload-independent terms, and the flattened port
// bindings — sorted by port, so error order is stable — fill the
// measured (or defaulted) port pAVFs.
func (a *Analyzer) buildEnv(in *Inputs) (pavf.Env, error) {
	a.envPrep()
	env := make(pavf.Env, len(a.envTemplate))
	copy(env, a.envTemplate)
	fill := func(m map[StructPort]float64, binds []portBind, what string) error {
		for _, b := range binds {
			v, ok := m[b.sp]
			switch {
			case ok:
				if v < 0 || v > 1 {
					return fmt.Errorf("core: %s pAVF for %s out of [0,1]: %v", what, b.sp, v)
				}
			case a.Opts.DefaultPortPAVF >= 0:
				v = a.Opts.DefaultPortPAVF
			default:
				return fmt.Errorf("core: missing %s pAVF for structure port %s", what, b.sp)
			}
			env.Set(b.t, v)
		}
		return nil
	}
	if err := fill(in.ReadPorts, a.readBind, "read"); err != nil {
		return nil, err
	}
	if err := fill(in.WritePorts, a.writeBind, "write"); err != nil {
		return nil, err
	}
	return env, nil
}

// CheckedEnv fuses CheckInputs and BuildEnv into a single hash pass: it
// walks each input table once, resolving every measured port against the
// design's term map — which detects stray ports for free — on top of a
// template that already carries the workload-independent terms and the
// port defaults. That is half the hashing of checking and then building,
// and it is the path the sweep engine takes per workload. Anything
// irregular — a stray port, an out-of-range value, a missing measurement
// with no default — falls back to CheckInputs followed by the sorted
// slow fill, so errors and their precedence are exactly those of calling
// CheckInputs then BuildEnv.
func (a *Analyzer) CheckedEnv(in *Inputs) (pavf.Env, error) {
	a.envPrep()
	env := make(pavf.Env, len(a.envTemplate))
	copy(env, a.envTemplate)
	fast := func(m map[StructPort]float64, terms map[StructPort]pavf.TermID) bool {
		for sp, v := range m {
			t, ok := terms[sp]
			if !ok || v < 0 || v > 1 {
				return false
			}
			env[t] = v
		}
		return true
	}
	ok := fast(in.ReadPorts, a.readTerm) && fast(in.WritePorts, a.writeTerm)
	if ok && a.Opts.DefaultPortPAVF < 0 {
		// No default: every design port must have been measured.
		ok = len(in.ReadPorts) == len(a.readBind) && len(in.WritePorts) == len(a.writeBind)
	}
	if !ok {
		if err := a.CheckInputs(in); err != nil {
			return nil, err
		}
		return a.buildEnv(in)
	}
	return env, nil
}

// ReadPortTerms returns the read ports the design references (useful for
// checking Inputs coverage).
func (a *Analyzer) ReadPortTerms() []StructPort {
	out := make([]StructPort, 0, len(a.readTerm))
	for sp := range a.readTerm {
		out = append(out, sp)
	}
	return out
}

// WritePortTerms returns the write ports the design references.
func (a *Analyzer) WritePortTerms() []StructPort {
	out := make([]StructPort, 0, len(a.writeTerm))
	for sp := range a.writeTerm {
		out = append(out, sp)
	}
	return out
}

// NumLoopTerms returns the count of distinct loop-boundary nodes.
func (a *Analyzer) NumLoopTerms() int { return len(a.loopTerms) }
