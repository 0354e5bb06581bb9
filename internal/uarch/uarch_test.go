package uarch

import (
	"math"
	"testing"

	"seqavf/internal/isa"
	"seqavf/internal/obs"
	"seqavf/internal/workload"
)

func TestRunMatchesArchitecturalOutput(t *testing.T) {
	p := workload.MD5Like(50)
	arch, err := isa.Exec(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) != len(arch.Out) {
		t.Fatalf("out lengths differ: %d vs %d", len(res.Out), len(arch.Out))
	}
	for i := range res.Out {
		if res.Out[i] != arch.Out[i] {
			t.Fatalf("out[%d] = %d, want %d", i, res.Out[i], arch.Out[i])
		}
	}
}

func TestTimingAccounting(t *testing.T) {
	p := workload.Lattice(6)
	res, err := Run(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= uint64(res.Instrs) {
		t.Fatalf("cycles %d should exceed instr count %d (stalls)", res.Cycles, res.Instrs)
	}
	if res.IPC <= 0 || res.IPC > 1 {
		t.Fatalf("IPC = %v out of (0,1]", res.IPC)
	}
}

func TestReportCoversAllStructures(t *testing.T) {
	res, err := Run(workload.Lattice(6), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	for _, s := range []string{StructFetchQ, StructIQ, StructRegFile, StructStoreBuf, StructDCache, StructDTag} {
		if _, ok := r.StructAVF[s]; !ok {
			t.Errorf("report missing structure %s", s)
		}
	}
	for _, port := range []string{"RegFile.rd0", "RegFile.rd1", "FetchQ.drain", "IQ.issue", "StoreBuf.drain", "DCache.ld"} {
		if _, ok := r.ReadPorts[port]; !ok {
			t.Errorf("report missing read port %s", port)
		}
	}
	for _, port := range []string{"RegFile.wr0", "FetchQ.fill", "IQ.alloc", "StoreBuf.alloc", "DCache.fill", "DCache.st"} {
		if _, ok := r.WritePorts[port]; !ok {
			t.Errorf("report missing write port %s", port)
		}
	}
}

func TestPAVFsAreSane(t *testing.T) {
	res, err := Run(workload.Lattice(8), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	check := func(m map[string]float64, what string) {
		for k, v := range m {
			if v < 0 || v > 1 {
				t.Errorf("%s %s = %v out of [0,1]", what, k, v)
			}
		}
	}
	check(res.Report.ReadPorts, "read port")
	check(res.Report.WritePorts, "write port")
	for k, v := range res.Report.StructAVF {
		if v < 0 || v > 1 {
			t.Errorf("struct AVF %s = %v", k, v)
		}
	}
	// A load-heavy kernel must actually exercise the cache read port.
	if res.Report.ReadPorts["DCache.ld"] == 0 {
		t.Error("lattice kernel produced no ACE cache reads")
	}
	// The fetch path carries every ACE instruction: its fill pAVF should
	// be the largest port rate in a scalar machine.
	if res.Report.WritePorts["FetchQ.fill"] < res.Report.WritePorts["StoreBuf.alloc"] {
		t.Error("fetch fill rate below store-buffer alloc rate")
	}
}

func TestDeadCodeLowersACEFraction(t *testing.T) {
	cfgLo := workload.DefaultSynth("lo", 7)
	cfgLo.DeadFrac = 0
	cfgHi := cfgLo
	cfgHi.Name = "hi"
	cfgHi.DeadFrac = 0.5
	lo, err := Run(workload.Synthetic(cfgLo), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Run(workload.Synthetic(cfgHi), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if hi.ACEInstrFraction >= lo.ACEInstrFraction {
		t.Fatalf("dead code did not lower ACE fraction: %v vs %v",
			hi.ACEInstrFraction, lo.ACEInstrFraction)
	}
	// And the IQ pAVFs should drop with it.
	if hi.Report.ReadPorts["IQ.issue"] >= lo.Report.ReadPorts["IQ.issue"] {
		t.Fatalf("IQ issue pAVF did not drop: %v vs %v",
			hi.Report.ReadPorts["IQ.issue"], lo.Report.ReadPorts["IQ.issue"])
	}
}

func TestWorkloadsProduceDistinctPAVFs(t *testing.T) {
	a, err := Run(workload.Lattice(8), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(workload.MD5Like(200), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The register-only kernel has (almost) no cache traffic; the
	// lattice kernel is load-heavy.
	if b.Report.ReadPorts["DCache.ld"] >= a.Report.ReadPorts["DCache.ld"] {
		t.Fatalf("md5-like cache reads (%v) should be below lattice (%v)",
			b.Report.ReadPorts["DCache.ld"], a.Report.ReadPorts["DCache.ld"])
	}
}

func TestRunSuite(t *testing.T) {
	progs := workload.Suite(4, 42)
	results, avg, err := RunSuite(progs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	if avg.ReadPorts["RegFile.rd0"] <= 0 {
		t.Fatal("suite average has zero regfile read pAVF")
	}
	if _, _, err := RunSuite(nil, DefaultConfig()); err == nil {
		t.Fatal("empty suite should fail")
	}
}

func TestBitFieldAnalysisDifferentiatesFields(t *testing.T) {
	// A branch-free ALU-only program: imm field largely un-ACE relative
	// to op field when instructions use register forms.
	b := isa.NewBuilder("regonly")
	b.Imm(isa.ADDI, 1, 0, 3)
	b.Imm(isa.ADDI, 2, 0, 4)
	for i := 0; i < 50; i++ {
		b.R(isa.ADD, 3, 1, 2)
		b.R(isa.XOR, 1, 3, 2)
	}
	b.Out(1)
	b.Halt()
	res, err := Run(b.MustBuild(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Bit-field analysis keeps the IQ AVF below what whole-entry
	// (all-fields-ACE) tracking would report; with mostly register-form
	// instructions the imm field contributes almost nothing, so the IQ
	// AVF must sit measurably below the fetch queue's.
	iq := res.Report.StructAVF[StructIQ]
	if iq <= 0 {
		t.Fatal("IQ AVF is zero")
	}
	if iq >= res.Report.StructAVF[StructFetchQ] {
		t.Fatalf("expected field-resolved IQ AVF (%v) below FetchQ AVF (%v)",
			iq, res.Report.StructAVF[StructFetchQ])
	}
}

func TestBTBStructures(t *testing.T) {
	// A loop-heavy workload trains and re-reads the BTB.
	res, err := Run(workload.TransactionMix(16, 60), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.WritePorts["BTB.fill"] == 0 {
		t.Fatal("no BTB fills on a branchy workload")
	}
	if res.Report.ReadPorts["BTB.pred"] == 0 {
		t.Fatal("no BTB hits on a loop")
	}
	if _, ok := res.Report.StructAVF[StructBTBTag]; !ok {
		t.Fatal("BTB tag array missing from report")
	}
	// A branch-free straight-line program leaves the BTB silent.
	b := isa.NewBuilder("straight")
	b.Imm(isa.ADDI, 1, 0, 1)
	for i := 0; i < 30; i++ {
		b.R(isa.ADD, 1, 1, 1)
	}
	b.Out(1)
	b.Halt()
	quiet, err := Run(b.MustBuild(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Report.WritePorts["BTB.fill"] != 0 {
		t.Fatal("BTB filled without taken branches")
	}
}

func TestPointerChaseStallsPipeline(t *testing.T) {
	chase, err := Run(workload.PointerChase(16, 8), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	md5, err := Run(workload.MD5Like(100), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if chase.IPC >= md5.IPC {
		t.Fatalf("dependent loads should lower IPC: chase %.3f vs md5 %.3f",
			chase.IPC, md5.IPC)
	}
}

func TestSDCVirusTopsWorkloadsOnAVF(t *testing.T) {
	virus, err := Run(workload.SDCVirus(128), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	normal, err := Run(workload.Synthetic(workload.DefaultSynth("n", 4)), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if virus.Report.AvgStructAVF() <= normal.Report.AvgStructAVF() {
		t.Fatalf("virus avg struct AVF %.3f not above normal %.3f",
			virus.Report.AvgStructAVF(), normal.Report.AvgStructAVF())
	}
	if virus.Report.ReadPorts["FetchQ.drain"] <= normal.Report.ReadPorts["FetchQ.drain"] {
		t.Fatal("virus fetch pAVF not elevated")
	}
}

func TestLittleLawTracksLifetimeOnRealWorkload(t *testing.T) {
	res, err := Run(workload.SDCVirus(128), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// For the continuously-live structures the two estimators agree
	// within the unknown-tail gap.
	for _, s := range []string{StructRegFile, StructDCache} {
		full := res.Report.StructAVF[s]
		little := res.Report.LittleAVF[s]
		if little < 0.5*full {
			t.Errorf("%s: Little %v far below lifetime %v", s, little, full)
		}
	}
}

// TestGeometrySensitivity: port pAVFs are per-cycle rates, so machine
// geometry changes them — slower memory stretches cycles and dilutes the
// fetch-path rates, which is why the paper measures pAVFs on a detailed
// performance model rather than assuming them.
func TestGeometrySensitivity(t *testing.T) {
	p := workload.Lattice(8)
	fast := DefaultConfig()
	slow := DefaultConfig()
	slow.MissPenalty = 40
	slow.CacheLines = 2 // thrash
	a, err := Run(p, fast)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, slow)
	if err != nil {
		t.Fatal(err)
	}
	if b.IPC >= a.IPC {
		t.Fatalf("slow memory did not lower IPC: %v vs %v", b.IPC, a.IPC)
	}
	if b.Report.ReadPorts["RegFile.rd0"] >= a.Report.ReadPorts["RegFile.rd0"] {
		t.Fatalf("stalls did not dilute regfile read rate: %v vs %v",
			b.Report.ReadPorts["RegFile.rd0"], a.Report.ReadPorts["RegFile.rd0"])
	}
}

// TestIssueWidthAblation: a dual-issue machine retires faster and
// concentrates more ACE traffic into each cycle, raising port pAVFs —
// why port rates must be measured on a model of the actual machine.
func TestIssueWidthAblation(t *testing.T) {
	p := workload.MD5Like(150)
	narrow, err := Run(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wideCfg := DefaultConfig()
	wideCfg.IssueWidth = 2
	wide, err := Run(p, wideCfg)
	if err != nil {
		t.Fatal(err)
	}
	if wide.IPC <= narrow.IPC {
		t.Fatalf("dual issue did not raise IPC: %v vs %v", wide.IPC, narrow.IPC)
	}
	if wide.IPC > 2 {
		t.Fatalf("IPC %v exceeds issue width", wide.IPC)
	}
	if wide.Report.WritePorts["FetchQ.fill"] <= narrow.Report.WritePorts["FetchQ.fill"] {
		t.Fatalf("fetch rate did not rise with width: %v vs %v",
			wide.Report.WritePorts["FetchQ.fill"], narrow.Report.WritePorts["FetchQ.fill"])
	}
	// Outputs unchanged: timing only.
	if len(wide.Out) != len(narrow.Out) {
		t.Fatal("issue width changed program output")
	}
}

// TestIssueWidthOneIsDefaultPath: the scalar path is bit-identical to the
// default config (protects the calibrated experiment numbers).
func TestIssueWidthOneIsDefaultPath(t *testing.T) {
	p := workload.Lattice(6)
	a, err := Run(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.IssueWidth = 1
	b, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	for k, v := range a.Report.ReadPorts {
		if b.Report.ReadPorts[k] != v {
			t.Fatalf("port %s differs", k)
		}
	}
}

// TestBitFieldAblation quantifies §5.1's claim that Bit Field Analysis
// makes control-structure pAVFs "much less conservative": whole-entry
// tracking must report a strictly higher IQ AVF.
func TestBitFieldAblation(t *testing.T) {
	p := workload.Synthetic(workload.DefaultSynth("abl", 5))
	fields, err := Run(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	whole := DefaultConfig()
	whole.WholeEntryIQ = true
	coarse, err := Run(p, whole)
	if err != nil {
		t.Fatal(err)
	}
	if fields.Report.StructAVF[StructIQ] >= coarse.Report.StructAVF[StructIQ] {
		t.Fatalf("field analysis did not reduce IQ AVF: %v vs %v",
			fields.Report.StructAVF[StructIQ], coarse.Report.StructAVF[StructIQ])
	}
	// Timing is untouched by the tracking mode.
	if fields.Cycles != coarse.Cycles {
		t.Fatal("ablation changed timing")
	}
	t.Logf("IQ AVF: fields %.4f vs whole-entry %.4f (%.0f%% lower)",
		fields.Report.StructAVF[StructIQ], coarse.Report.StructAVF[StructIQ],
		100*(1-fields.Report.StructAVF[StructIQ]/coarse.Report.StructAVF[StructIQ]))
}

// TestRunMetrics pins the uarch.* and ace.* telemetry a -metrics run
// prints: every counter equals the Result or ACE report field it was
// copied from.
func TestRunMetrics(t *testing.T) {
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Obs = reg
	res, err := Run(workload.Lattice(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	r := res.Report
	for name, want := range map[string]int64{
		"uarch.runs":       1,
		"uarch.cycles":     int64(res.Cycles),
		"uarch.instrs":     int64(res.Instrs),
		"uarch.ace_instrs": int64(math.Round(res.ACEInstrFraction * float64(res.Instrs))),
		"ace.read_events":  int64(r.ReadEvents),
		"ace.write_events": int64(r.WriteEvents),
		"ace.ace_reads":    int64(r.ACEReads),
		"ace.ace_writes":   int64(r.ACEWrites),
		"ace.tag_lookups":  int64(r.Lookups),
	} {
		if got := snap.Counters[name]; got != want || want == 0 {
			t.Errorf("%s = %d, want %d (> 0)", name, got, want)
		}
	}
	if got := snap.Gauges["uarch.ipc"]; got != res.IPC {
		t.Errorf("uarch.ipc = %v, want %v", got, res.IPC)
	}
}
