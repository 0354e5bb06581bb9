// Package uarch is the detailed micro-architectural performance model of
// the reproduction's small core, instrumented with ACE lifetime analysis
// (internal/ace). It plays the role of the paper's ACE-instrumented
// performance model: it executes workloads at cycle granularity and
// measures, for every modeled storage structure, the structure AVF
// (Equation 3) and the per-port pAVFs that SART consumes.
//
// The machine is a scalar in-order 5-stage pipeline (IF ID EX MEM WB) with:
//
//	FetchQ    fetched instruction words awaiting decode
//	IQ        decoded instruction queue with bit fields (op/regs/imm) —
//	          exercising the paper's Bit Field Analysis
//	RegFile   16x32 architectural registers (2 read ports, 1 write port)
//	StoreBuf  pending stores (addr/data fields)
//	DCache    direct-mapped data cache array
//	DTag      the cache tag array, tracked with Hamming-distance-1 analysis
//
// Timing is modeled by replaying the architectural trace through a stage
// scheduler with load-use, branch-redirect, and cache-miss stalls. The
// dynamic ACEness of each instruction comes from isa.ACEFlags (backward
// liveness over the trace), so structure events carry exact ACE/un-ACE
// attribution.
package uarch

import (
	"fmt"

	"seqavf/internal/ace"
	"seqavf/internal/isa"
	"seqavf/internal/obs"
)

// Config sets the machine geometry and penalties.
type Config struct {
	FetchQEntries   int
	IQEntries       int
	StoreBufEntries int
	CacheLines      int // direct-mapped data cache lines
	BTBEntries      int // branch target buffer entries
	TagBits         int
	MissPenalty     int // cycles added on a data-cache miss
	BranchPenalty   int // cycles added on a taken branch
	// IssueWidth > 1 models a superscalar front end: up to IssueWidth
	// instructions issue per cycle when free of RAW hazards, with one
	// memory operation per group and branches ending a group. Port pAVFs
	// are per-cycle rates, so a wider machine concentrates more ACE
	// traffic into each cycle.
	IssueWidth int
	// WholeEntryIQ disables Bit Field Analysis on the instruction queue:
	// the entry is tracked as one field whose ACEness is the
	// instruction's (the pre-§5.1 conservative treatment). Used by the
	// ablation that quantifies how much field resolution buys.
	WholeEntryIQ bool
	// Window, when > 0, quantizes the ACE model into fixed windows of
	// that many cycles: Result.Intervals then carries per-window
	// structure AVFs and port pAVFs (the time-resolved measurements the
	// interval sweep path consumes) alongside the whole-run Report.
	Window    uint64
	MaxInstrs int // trace budget (0 = isa.DefaultMaxSteps)
	// Obs receives performance-model telemetry: per-run spans
	// (arch_exec/replay/ace_finish), cycle and instruction counters, ACE
	// read/write tallies, and an IPC gauge. nil disables it.
	Obs *obs.Registry
}

// DefaultConfig returns the geometry used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		FetchQEntries:   8,
		IQEntries:       8,
		StoreBufEntries: 4,
		CacheLines:      16,
		BTBEntries:      8,
		TagBits:         12,
		MissPenalty:     4,
		BranchPenalty:   2,
	}
}

// Structure and port names exposed to the SART binding (step 4 of the
// paper's tool flow maps these onto RTL latch arrays).
const (
	StructFetchQ   = "FetchQ"
	StructIQ       = "IQ"
	StructRegFile  = "RegFile"
	StructStoreBuf = "StoreBuf"
	StructDCache   = "DCache"
	StructDTag     = "DTag"
	StructBTB      = "BTB"
	StructBTBTag   = "BTBTag"
)

// Result is the outcome of one instrumented run.
type Result struct {
	Program *isa.Program
	Cycles  uint64
	Instrs  int
	IPC     float64
	// Out is the observed program output (identical to the architectural
	// run by construction).
	Out []uint32
	// Report carries structure AVFs and port pAVFs for SART.
	Report *ace.Report
	// Intervals carries the windowed measurements when Config.Window was
	// set (nil otherwise): one report per time window of the run.
	Intervals *ace.IntervalReport
	// ACEInstrFraction is the share of dynamic instructions that were
	// necessary for architecturally correct execution.
	ACEInstrFraction float64
}

// Run executes p on the performance model and returns the ACE
// measurements.
func Run(p *isa.Program, cfg Config) (*Result, error) {
	sp := cfg.Obs.StartSpan("uarch.run")
	defer sp.End()
	sp.SetAttr("program", p.Name)
	maxSteps := cfg.MaxInstrs
	if maxSteps <= 0 {
		maxSteps = p.MaxCycles
	}
	asp := sp.Child("arch_exec")
	arch, err := isa.Exec(p, maxSteps)
	if err != nil {
		asp.End()
		return nil, fmt.Errorf("uarch: architectural run: %w", err)
	}
	flags := isa.ACEFlags(arch.Trace, arch.Halted)
	asp.SetAttr("instrs", len(arch.Trace))
	asp.End()
	rsp := sp.Child("replay")

	m := ace.NewModel()
	if cfg.Window > 0 {
		m.Quantize(cfg.Window)
	}
	fetchq := m.AddStructure(StructFetchQ, cfg.FetchQEntries, 32)
	var iq *ace.Structure
	if cfg.WholeEntryIQ {
		iq = m.AddStructure(StructIQ, cfg.IQEntries, 32)
	} else {
		iq = m.AddStructure(StructIQ, cfg.IQEntries, 0,
			ace.Field{Name: "op", Width: 8},
			ace.Field{Name: "regs", Width: 12},
			ace.Field{Name: "imm", Width: 12},
		)
	}
	regfile := m.AddStructure(StructRegFile, 16, 32)
	storebuf := m.AddStructure(StructStoreBuf, cfg.StoreBufEntries, 0,
		ace.Field{Name: "addr", Width: 16},
		ace.Field{Name: "data", Width: 32},
	)
	dcache := m.AddStructure(StructDCache, cfg.CacheLines, 32)
	dtag := m.AddHD1(StructDTag, cfg.CacheLines, cfg.TagBits)
	btb := m.AddStructure(StructBTB, cfg.BTBEntries, 32)
	btbTag := m.AddHD1(StructBTBTag, cfg.BTBEntries, cfg.TagBits)

	// Declare every port up front so reports cover quiet ports too.
	fetchq.DeclarePort("fill", ace.DirWrite)
	fetchq.DeclarePort("drain", ace.DirRead)
	iq.DeclarePort("alloc", ace.DirWrite)
	iq.DeclarePort("issue", ace.DirRead)
	regfile.DeclarePort("rd0", ace.DirRead)
	regfile.DeclarePort("rd1", ace.DirRead)
	regfile.DeclarePort("wr0", ace.DirWrite)
	storebuf.DeclarePort("alloc", ace.DirWrite)
	storebuf.DeclarePort("drain", ace.DirRead)
	dcache.DeclarePort("ld", ace.DirRead)
	dcache.DeclarePort("fill", ace.DirWrite)
	dcache.DeclarePort("st", ace.DirWrite)
	btb.DeclarePort("pred", ace.DirRead)
	btb.DeclarePort("fill", ace.DirWrite)

	// BTB model state: direct-mapped by PC.
	btbValid := make([]bool, cfg.BTBEntries)
	btbPC := make([]uint32, cfg.BTBEntries)
	// Cache model state: direct-mapped, word lines.
	lineValid := make([]bool, cfg.CacheLines)
	lineTag := make([]uint32, cfg.CacheLines)
	lineOf := func(addr uint32) int { return int(addr) % cfg.CacheLines }
	tagOf := func(addr uint32) uint32 { return addr / uint32(cfg.CacheLines) }

	cycle := uint64(0)
	sbSlot := 0
	aceCount := 0
	slot := 1
	pendingStall := uint64(0)
	var prevIn isa.Instr
	for i, te := range arch.Trace {
		in := te.Instr
		aceI := flags[i]
		if aceI {
			aceCount++
		}
		if cfg.IssueWidth > 1 && i > 0 {
			// Superscalar grouping: stay in the issue cycle when the
			// instruction pairs cleanly with its predecessors.
			if slot < cfg.IssueWidth && canPair(prevIn, in) && pendingStall == 0 {
				slot++
			} else {
				cycle += 1 + pendingStall
				pendingStall = 0
				slot = 1
			}
		}
		cIF := cycle
		cID := cycle + 1
		cEX := cycle + 2
		cMEM := cycle + 3
		cWB := cycle + 4

		// IF: fetched word enters the fetch queue; the BTB is probed for
		// every fetch (a false hit redirects the front end, so lookups
		// carry the instruction's ACEness).
		fqSlot := i % cfg.FetchQEntries
		fetchq.Write("fill", fqSlot, cIF, aceI)
		btbSlot := int(te.PC) % cfg.BTBEntries
		btbTag.Lookup(te.PC/uint32(cfg.BTBEntries), aceI)
		if btbValid[btbSlot] && btbPC[btbSlot] == te.PC && in.IsBranch() {
			btb.Read("pred", btbSlot, cIF, aceI)
		}
		// ID: drain fetch queue, allocate IQ entry, read registers.
		fetchq.Read("drain", fqSlot, cID, aceI)
		iqSlot := i % cfg.IQEntries
		// Bit Field Analysis: the op field matters whenever the
		// instruction is ACE; the register-specifier field only when a
		// register is actually read or written; the immediate field only
		// for immediate-consuming encodings.
		usesRegs := in.ReadsRa() || in.ReadsRb() || in.WritesReg()
		usesImm := usesImmediate(in)
		if cfg.WholeEntryIQ {
			iq.Write("alloc", iqSlot, cID, aceI)
		} else {
			iq.WriteFields("alloc", iqSlot, cID, []bool{aceI, aceI && usesRegs, aceI && usesImm})
		}
		if in.ReadsRa() {
			regfile.Read("rd0", int(in.Ra), cID, aceI && in.Ra != 0)
		}
		if in.ReadsRb() {
			regfile.Read("rd1", int(in.Rb), cID, aceI && in.Rb != 0)
		}
		// EX: issue from the IQ.
		if cfg.WholeEntryIQ {
			iq.Read("issue", iqSlot, cEX, aceI)
		} else {
			iq.ReadFields("issue", iqSlot, cEX, []bool{aceI, aceI && usesRegs, aceI && usesImm})
		}
		// MEM: data cache and store buffer.
		stall := uint64(0)
		switch in.Op {
		case isa.LD:
			line := lineOf(te.Addr)
			hit := lineValid[line] && lineTag[line] == tagOf(te.Addr)
			dtag.Lookup(tagOf(te.Addr), aceI)
			if hit {
				dcache.Read("ld", line, cMEM, aceI)
			} else {
				stall += uint64(cfg.MissPenalty)
				dcache.Write("fill", line, cMEM+stall, aceI)
				dcache.Read("ld", line, cMEM+stall, aceI)
				lineValid[line] = true
				lineTag[line] = tagOf(te.Addr)
				dtag.Store(line, tagOf(te.Addr))
			}
		case isa.ST:
			storebuf.WriteFields("alloc", sbSlot, cMEM, []bool{aceI, aceI})
			// Drain two cycles later into the cache line.
			storebuf.ReadFields("drain", sbSlot, cMEM+2, []bool{aceI, aceI})
			line := lineOf(te.Addr)
			dcache.Write("st", line, cMEM+2, aceI)
			dtag.Lookup(tagOf(te.Addr), aceI)
			lineValid[line] = true
			lineTag[line] = tagOf(te.Addr)
			dtag.Store(line, tagOf(te.Addr))
			sbSlot = (sbSlot + 1) % cfg.StoreBufEntries
		}
		// Taken branches train the BTB.
		if in.IsBranch() && te.Taken {
			btb.Write("fill", btbSlot, cEX, aceI)
			btbTag.Store(btbSlot, te.PC/uint32(cfg.BTBEntries))
			btbValid[btbSlot] = true
			btbPC[btbSlot] = te.PC
		}
		// WB: register write.
		if in.WritesReg() {
			regfile.Write("wr0", int(in.Rd), cWB, aceI)
		}

		if cfg.IssueWidth > 1 {
			// Wide mode: accumulate this instruction's penalties; they
			// apply when the next group starts.
			pendingStall += stall
			if in.IsBranch() && te.Taken {
				pendingStall += uint64(cfg.BranchPenalty)
			}
			if i+1 < len(arch.Trace) {
				next := arch.Trace[i+1].Instr
				if in.Op == isa.LD && in.Rd != 0 &&
					((next.ReadsRa() && next.Ra == in.Rd) || (next.ReadsRb() && next.Rb == in.Rd)) {
					pendingStall++ // load-use bubble
				}
			}
			prevIn = in
			continue
		}
		// Advance: scalar machine retires one instruction per cycle plus
		// hazard stalls.
		cycle++
		cycle += stall
		if in.IsBranch() && te.Taken {
			cycle += uint64(cfg.BranchPenalty)
		}
		if i+1 < len(arch.Trace) {
			next := arch.Trace[i+1].Instr
			if in.Op == isa.LD && in.Rd != 0 &&
				((next.ReadsRa() && next.Ra == in.Rd) || (next.ReadsRb() && next.Rb == in.Rd)) {
				cycle++ // load-use bubble
			}
		}
	}
	if cfg.IssueWidth > 1 {
		cycle += 1 + pendingStall
	}
	endCycle := cycle + 4 // drain the pipeline
	rsp.SetAttr("cycles", endCycle)
	rsp.End()
	fsp := sp.Child("ace_finish")
	var (
		report    *ace.Report
		intervals *ace.IntervalReport
	)
	if cfg.Window > 0 {
		report, intervals, err = m.FinishIntervals(endCycle)
		if err != nil {
			fsp.End()
			return nil, fmt.Errorf("uarch: windowed finish: %w", err)
		}
	} else {
		report = m.Finish(endCycle)
	}
	fsp.End()

	res := &Result{
		Program:   p,
		Cycles:    endCycle,
		Instrs:    len(arch.Trace),
		Out:       arch.Out,
		Report:    report,
		Intervals: intervals,
	}
	if endCycle > 0 {
		res.IPC = float64(len(arch.Trace)) / float64(endCycle)
	}
	if len(arch.Trace) > 0 {
		res.ACEInstrFraction = float64(aceCount) / float64(len(arch.Trace))
	}
	if reg := cfg.Obs; reg != nil {
		reg.Counter("uarch.runs").Inc()
		reg.Counter("uarch.cycles").Add(int64(endCycle))
		reg.Counter("uarch.instrs").Add(int64(len(arch.Trace)))
		reg.Counter("uarch.ace_instrs").Add(int64(aceCount))
		reg.Counter("ace.read_events").Add(int64(report.ReadEvents))
		reg.Counter("ace.write_events").Add(int64(report.WriteEvents))
		reg.Counter("ace.ace_reads").Add(int64(report.ACEReads))
		reg.Counter("ace.ace_writes").Add(int64(report.ACEWrites))
		reg.Counter("ace.tag_lookups").Add(int64(report.Lookups))
		reg.Gauge("uarch.ipc").Set(res.IPC)
	}
	return res, nil
}

// canPair reports whether cur may share an issue cycle with prev: no RAW
// dependence, at most one memory operation per group, and branches end a
// group.
func canPair(prev, cur isa.Instr) bool {
	if prev.IsBranch() {
		return false
	}
	if prev.IsMem() && cur.IsMem() {
		return false
	}
	if prev.WritesReg() {
		if (cur.ReadsRa() && cur.Ra == prev.Rd) || (cur.ReadsRb() && cur.Rb == prev.Rd) {
			return false
		}
	}
	return true
}

func usesImmediate(in isa.Instr) bool {
	switch in.Op {
	case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.LUI, isa.LD, isa.ST,
		isa.BEQ, isa.BNE, isa.JMP:
		return true
	}
	return false
}

// RunSuite executes every program and returns the per-workload results
// plus the suite-average ACE report (the paper averages pAVFs over its
// 547-trace suite before applying them to the RTL).
func RunSuite(progs []*isa.Program, cfg Config) ([]*Result, *ace.Report, error) {
	if len(progs) == 0 {
		return nil, nil, fmt.Errorf("uarch: empty suite")
	}
	results := make([]*Result, 0, len(progs))
	reports := make([]*ace.Report, 0, len(progs))
	for _, p := range progs {
		r, err := Run(p, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("uarch: %s: %w", p.Name, err)
		}
		results = append(results, r)
		reports = append(reports, r.Report)
	}
	avg, err := ace.Average(reports)
	if err != nil {
		return nil, nil, err
	}
	return results, avg, nil
}
