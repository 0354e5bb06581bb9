// Package design generates the "XeonLike" synthetic processor netlist:
// the stand-in for the Intel Xeon® core RTL the paper analyzed (which we
// cannot have). The generator emits the same topological vocabulary the
// paper's methodology is defined over — simple pipelines, logical join
// points, distribution splits, FSM/stall feedback loops, configuration
// control registers, DFX debug taps, and latch arrays bound to
// ACE-modeled structures — at a configurable scale, wired into tens of
// FUBs with a mostly feed-forward interconnect.
//
// Every generated structure port carries an archetype binding: which port
// of the ACE performance model (internal/uarch) it behaves like, plus an
// activity scale. Inputs() turns a measured ACE report into the
// core.Inputs table for SART, so workload dependence flows end to end.
package design

import (
	"fmt"

	"seqavf/internal/ace"
	"seqavf/internal/cells"
	"seqavf/internal/core"
	"seqavf/internal/netlist"
	"seqavf/internal/stats"
)

// Config parameterizes the generator. The zero value is unusable; start
// from DefaultConfig.
type Config struct {
	Seed    uint64
	NumFubs int
	Width   int // datapath width of every lane and port

	LanesMin, LanesMax   int
	StagesMin, StagesMax int

	PJoin  float64 // per-stage probability of merging two lanes
	PSplit float64 // per-stage probability of forking a lane
	PCtrl  float64 // per-stage-lane probability of a control-reg mask
	PDebug float64 // per-stage-lane probability of a DFX tap
	// LoopsPerFub bounds the accumulator feedback loops inserted per FUB
	// (0..n).
	LoopsPerFub int
	// CellsPerFub bounds the structured cells (FIFOs, one-hot FSMs,
	// LFSRs from internal/cells) inserted per FUB — the "head and tail
	// pointer update loops and so forth" of §4.3.
	CellsPerFub int

	// Structure ports per FUB.
	ReadsMin, ReadsMax   int
	WritesMin, WritesMax int
	// StructEntries sizes generated latch arrays.
	StructEntries int

	// ScaleMin/Max bound the activity scale applied to archetype pAVFs.
	ScaleMin, ScaleMax float64

	// MaskMin/Max bound the per-node logical masking factor of the
	// ground-truth model (see GroundTruth).
	MaskMin, MaskMax float64

	// ParityFrac / ECCFrac set the fraction of generated structures that
	// carry end-to-end parity (DUE) or ECC (DCE) protection. The
	// canonical configuration leaves everything unprotected; the
	// protection-sweep experiment raises these to reproduce the paper's
	// §1 claim that protecting arrays raises the sequential share of SDC.
	ParityFrac, ECCFrac float64
}

// DefaultConfig is the scale used by the experiments: a few tens of FUBs,
// tens of thousands of bits.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:          seed,
		NumFubs:       32,
		Width:         12,
		LanesMin:      3,
		LanesMax:      6,
		StagesMin:     3,
		StagesMax:     8,
		PJoin:         0.35,
		PSplit:        0.25,
		PCtrl:         0.02,
		PDebug:        0.08,
		LoopsPerFub:   1,
		CellsPerFub:   1,
		ReadsMin:      1,
		ReadsMax:      2,
		WritesMin:     1,
		WritesMax:     3,
		StructEntries: 16,
		ScaleMin:      0.08,
		ScaleMax:      0.45,
		MaskMin:       0.70,
		MaskMax:       1.00,
		ParityFrac:    0,
		ECCFrac:       0,
	}
}

// MaxWidth is the widest datapath Generate accepts: the structured
// cells include LFSRs, which internal/cells generates up to 32 bits.
const MaxWidth = 32

// PaperScaleConfig is DefaultConfig at the scale the paper targets
// ("hundreds of FUBs, millions of sequentials"): 2048 FUBs at the
// widest datapath, about 2.09M bit vertices.
func PaperScaleConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.NumFubs = 2048
	cfg.Width = MaxWidth
	return cfg
}

// CanonicalOptions returns the SART options the experiments run the
// XeonLike design with: the paper's loop-boundary value (0.3, chosen via
// the Figure 8 sweep) and a boundary pseudo-structure pAVF of 0.2 —
// standing in for the paper's practice of assigning measured pAVFs to the
// pseudo-structures that wrap circuits outside the analyzed RTL.
func CanonicalOptions() core.Options {
	opts := core.DefaultOptions()
	opts.LoopPAVF = 0.3
	opts.PseudoPAVF = 0.2
	return opts
}

// PortSpec binds a generated structure port to a performance-model
// archetype port and an activity scale.
type PortSpec struct {
	// Archetype is a uarch report key like "RegFile.rd0".
	Archetype string
	Scale     float64
}

// Generated is a complete synthetic design plus its ACE bindings.
type Generated struct {
	Config Config
	Design *netlist.Design
	// ReadSpecs/WriteSpecs bind each structure port to its archetype.
	ReadSpecs  map[core.StructPort]PortSpec
	WriteSpecs map[core.StructPort]PortSpec
	// StructArch maps each generated structure to the uarch structure
	// whose measured AVF it inherits (scaled).
	StructArch map[string]PortSpec
}

var readArchetypes = []string{
	"FetchQ.drain", "IQ.issue", "RegFile.rd0", "RegFile.rd1",
	"StoreBuf.drain", "DCache.ld",
}

var writeArchetypes = []string{
	"FetchQ.fill", "IQ.alloc", "RegFile.wr0", "StoreBuf.alloc",
	"DCache.fill", "DCache.st",
}

// structArchetypes is biased toward latency-dominated arrays
// (architectural state) — the population whose high structure AVFs made
// the paper's structure-AVF proxy so conservative for sequentials.
var structArchetypes = []string{
	"RegFile", "RegFile", "RegFile", "FetchQ", "IQ", "StoreBuf", "DCache",
}

// Generate builds the synthetic design.
func Generate(cfg Config) (*Generated, error) {
	if cfg.NumFubs < 2 || cfg.Width < 2 || cfg.LanesMin < 1 ||
		cfg.LanesMax < cfg.LanesMin || cfg.StagesMax < cfg.StagesMin || cfg.StagesMin < 1 {
		return nil, fmt.Errorf("design: invalid config %+v", cfg)
	}
	if cfg.Width > MaxWidth {
		return nil, fmt.Errorf("design: width %d above %d, the widest LFSR cell internal/cells generates", cfg.Width, MaxWidth)
	}
	rng := stats.New(cfg.Seed)
	g := &Generated{
		Config:     cfg,
		Design:     netlist.NewDesign(fmt.Sprintf("xeonlike_%d", cfg.Seed)),
		ReadSpecs:  make(map[core.StructPort]PortSpec),
		WriteSpecs: make(map[core.StructPort]PortSpec),
		StructArch: make(map[string]PortSpec),
	}
	type outPort struct{ fub, port string }
	var openOutputs []outPort
	protFor := func(frng *stats.RNG) netlist.Protection {
		r := frng.Float64()
		switch {
		case r < cfg.ECCFrac:
			return netlist.ProtECC
		case r < cfg.ECCFrac+cfg.ParityFrac:
			return netlist.ProtParity
		default:
			return netlist.ProtNone
		}
	}

	for fi := 0; fi < cfg.NumFubs; fi++ {
		fubName := fmt.Sprintf("FUB%02d", fi)
		modName := fmt.Sprintf("fub%02d", fi)
		m := g.Design.AddModule(modName)
		b := netlist.Build(m)
		frng := rng.Fork(uint64(fi))

		var lanes []string
		uid := 0
		fresh := func(prefix string) string {
			uid++
			return fmt.Sprintf("%s_%d", prefix, uid)
		}

		// Sources: FUB inputs (wired below) and structure read ports.
		nIn := 1 + frng.Intn(3)
		var inPorts []string
		for k := 0; k < nIn; k++ {
			p := b.In(fmt.Sprintf("in%d", k), cfg.Width)
			inPorts = append(inPorts, p)
			lanes = append(lanes, p)
		}
		nRd := cfg.ReadsMin + frng.Intn(cfg.ReadsMax-cfg.ReadsMin+1)
		if fi < 2 && nRd == 0 {
			nRd = 1 // front FUBs always have measured sources
		}
		for k := 0; k < nRd; k++ {
			sname := fmt.Sprintf("S%02dR%d", fi, k)
			g.Design.AddStructure(sname, cfg.StructEntries, cfg.Width).Prot = protFor(frng)
			g.StructArch[sname] = PortSpec{
				Archetype: structArchetypes[frng.Intn(len(structArchetypes))],
				Scale:     1.0,
			}
			port := "rd"
			lane := b.SRead(fresh("srd"), cfg.Width, sname, port)
			g.ReadSpecs[core.StructPort{Struct: sname, Port: port}] = PortSpec{
				Archetype: readArchetypes[frng.Intn(len(readArchetypes))],
				Scale:     frng.Range(cfg.ScaleMin, cfg.ScaleMax),
			}
			lanes = append(lanes, lane)
		}

		// Control registers available for masking.
		var ctrls []string
		nCtrl := frng.Intn(3)
		for k := 0; k < nCtrl; k++ {
			name := fmt.Sprintf("cfg_reg%d", k)
			ctrls = append(ctrls, b.CtrlReg(name, cfg.Width, name, uint64(frng.Intn(1<<cfg.Width))))
		}

		// Stages.
		nStages := cfg.StagesMin + frng.Intn(cfg.StagesMax-cfg.StagesMin+1)
		loopsLeft := frng.Intn(cfg.LoopsPerFub + 1)
		cellsLeft := frng.Intn(cfg.CellsPerFub + 1)
		maxLanes := cfg.LanesMax
		joinOps := []netlist.Op{netlist.OpXor, netlist.OpAnd, netlist.OpOr}
		for s := 0; s < nStages; s++ {
			// Join.
			if len(lanes) >= 2 && frng.Bool(cfg.PJoin) {
				i := frng.Intn(len(lanes))
				j := frng.Intn(len(lanes))
				if i != j {
					op := joinOps[frng.Intn(len(joinOps))]
					merged := b.C(fresh("join"), cfg.Width, op, lanes[i], lanes[j])
					// Remove j, replace i.
					lanes[i] = merged
					lanes[j] = lanes[len(lanes)-1]
					lanes = lanes[:len(lanes)-1]
				}
			}
			// Split.
			if len(lanes) < maxLanes && frng.Bool(cfg.PSplit) {
				lanes = append(lanes, lanes[frng.Intn(len(lanes))])
			}
			// Structured cell insertion: a FIFO, one-hot FSM, or LFSR
			// grafted into one lane (the realistic loop inventory).
			if cellsLeft > 0 && frng.Bool(0.2) {
				cellsLeft--
				i := frng.Intn(len(lanes))
				switch frng.Intn(6) {
				case 0:
					push := b.Select(fresh("c_push"), 1, lanes[i], 0)
					pop := b.Select(fresh("c_pop"), 1, lanes[i], 1)
					fifo, err := cells.NewFIFO(b, fresh("c_fifo"), 2, cfg.Width, lanes[i], push, pop)
					if err != nil {
						return nil, err
					}
					lanes[i] = fifo.Out
				case 1, 2:
					adv := b.Select(fresh("c_adv"), 1, lanes[i], 0)
					sts, err := cells.NewOneHotFSM(b, fresh("c_fsm"), 3, adv)
					if err != nil {
						return nil, err
					}
					inv := b.C(fresh("c_inv"), cfg.Width, netlist.OpNot, lanes[i])
					lanes[i] = b.Mux(fresh("c_gate"), cfg.Width, sts[1], lanes[i], inv)
				default:
					lf, err := cells.NewLFSR(b, fresh("c_lfsr"), cfg.Width, frng.Uint64())
					if err != nil {
						return nil, err
					}
					lanes[i] = b.C(fresh("c_mix"), cfg.Width, netlist.OpXor, lanes[i], lf)
				}
			}
			// Loop insertion: an accumulator FSM mixed into one lane.
			if loopsLeft > 0 && frng.Bool(0.3) {
				loopsLeft--
				i := frng.Intn(len(lanes))
				acc := fresh("acc")
				nxt := fresh("acc_next")
				b.M.Add(&netlist.Node{Name: acc, Kind: netlist.KindSeq, Width: cfg.Width, Inputs: []string{nxt}})
				b.C(nxt, cfg.Width, netlist.OpAdd, acc, lanes[i])
				lanes[i] = b.C(fresh("mixl"), cfg.Width, netlist.OpXor, lanes[i], acc)
			}
			// Per-lane: optional control mask, optional debug tap, then
			// the stage's pipeline register.
			for i := range lanes {
				if len(ctrls) > 0 && frng.Bool(cfg.PCtrl) {
					lanes[i] = b.C(fresh("gate"), cfg.Width, netlist.OpAnd,
						lanes[i], ctrls[frng.Intn(len(ctrls))])
				}
				if frng.Bool(cfg.PDebug) {
					b.M.Add(&netlist.Node{
						Name: fresh("dbg_tap"), Kind: netlist.KindSeq,
						Width: cfg.Width, Inputs: []string{lanes[i]},
						Class: netlist.ClassDebug,
					})
				}
				lanes[i] = b.Seq(fmt.Sprintf("st%d_%s", s, fresh("q")), cfg.Width, lanes[i])
			}
		}

		// Sinks: structure writes and FUB outputs.
		nWr := cfg.WritesMin + frng.Intn(cfg.WritesMax-cfg.WritesMin+1)
		nOut := 1 + frng.Intn(2)
		needed := nWr + nOut
		for len(lanes) < needed {
			lanes = append(lanes, lanes[frng.Intn(len(lanes))])
		}
		// Merge excess lanes into lane 0 so nothing dangles.
		for len(lanes) > needed {
			last := lanes[len(lanes)-1]
			lanes = lanes[:len(lanes)-1]
			lanes[0] = b.C(fresh("fold"), cfg.Width, netlist.OpXor, lanes[0], last)
		}
		li := 0
		for k := 0; k < nWr; k++ {
			sname := fmt.Sprintf("S%02dW%d", fi, k)
			g.Design.AddStructure(sname, cfg.StructEntries, cfg.Width).Prot = protFor(frng)
			g.StructArch[sname] = PortSpec{
				Archetype: structArchetypes[frng.Intn(len(structArchetypes))],
				Scale:     1.0,
			}
			b.SWrite(fresh("swr"), sname, "wr", lanes[li])
			g.WriteSpecs[core.StructPort{Struct: sname, Port: "wr"}] = PortSpec{
				Archetype: writeArchetypes[frng.Intn(len(writeArchetypes))],
				Scale:     frng.Range(cfg.ScaleMin, cfg.ScaleMax),
			}
			li++
		}
		var outs []string
		for k := 0; k < nOut; k++ {
			p := fmt.Sprintf("out%d", k)
			b.Out(p, cfg.Width, lanes[li])
			outs = append(outs, p)
			li++
		}

		g.Design.AddFub(fubName, modName)

		// Inter-FUB wiring: inputs come from recent FUBs' outputs; the
		// first FUBs keep undriven (boundary pseudo-structure) inputs.
		if fi > 0 {
			for _, in := range inPorts {
				if frng.Bool(0.15) {
					continue // leave a sprinkling of boundary inputs
				}
				src := openOutputs[frng.Intn(len(openOutputs))]
				g.Design.ConnectPorts(src.fub, src.port, fubName, in)
			}
		}
		for _, p := range outs {
			openOutputs = append(openOutputs, outPort{fub: fubName, port: p})
		}
		// Keep the pool biased toward recent FUBs.
		if len(openOutputs) > 6 {
			openOutputs = openOutputs[len(openOutputs)-6:]
		}
	}
	if err := g.Design.Validate(); err != nil {
		return nil, fmt.Errorf("design: generated netlist invalid: %w", err)
	}
	return g, nil
}

// Inputs derives the SART input tables from a measured ACE report by
// applying each port's archetype binding. Unknown archetype keys are an
// error (the report must come from the uarch model).
func (g *Generated) Inputs(rep *ace.Report) (*core.Inputs, error) {
	in := core.NewInputs()
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	for sp, spec := range g.ReadSpecs {
		base, ok := rep.ReadPorts[spec.Archetype]
		if !ok {
			return nil, fmt.Errorf("design: report lacks read archetype %s", spec.Archetype)
		}
		in.ReadPorts[sp] = clamp(base * spec.Scale)
	}
	for sp, spec := range g.WriteSpecs {
		base, ok := rep.WritePorts[spec.Archetype]
		if !ok {
			return nil, fmt.Errorf("design: report lacks write archetype %s", spec.Archetype)
		}
		in.WritePorts[sp] = clamp(base * spec.Scale)
	}
	for sname, spec := range g.StructArch {
		base, ok := rep.StructAVF[spec.Archetype]
		if !ok {
			return nil, fmt.Errorf("design: report lacks structure archetype %s", spec.Archetype)
		}
		in.StructAVF[sname] = clamp(base * spec.Scale)
	}
	return in, nil
}

// GroundTruth derives the per-sequential-bit "silicon truth" AVF used by
// the simulated beam test. SART cannot see logical masking beyond the ACE
// model (§4, second assumption); the generative truth applies a per-node
// masking factor in [MaskMin, MaskMax], drawn deterministically from the
// design seed, to SART's estimate. Truth is therefore never above the
// model — the documented direction of SART's conservatism — while the gap
// varies node to node.
func (g *Generated) GroundTruth(res *core.Result) []float64 {
	rng := stats.New(g.Config.Seed ^ 0xBEEF)
	gr := res.Analyzer.G
	truth := make([]float64, gr.NumVerts())
	maskOf := make(map[*netlist.Node]float64)
	for v := 0; v < gr.NumVerts(); v++ {
		node := gr.Verts[v].Node
		m, ok := maskOf[node]
		if !ok {
			m = rng.Range(g.Config.MaskMin, g.Config.MaskMax)
			maskOf[node] = m
		}
		truth[v] = res.AVF[v] * m
	}
	return truth
}
