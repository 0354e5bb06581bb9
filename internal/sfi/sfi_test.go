package sfi

import (
	"testing"

	"seqavf/internal/isa"
	"seqavf/internal/obs"
	"seqavf/internal/tinycore"
	"seqavf/internal/workload"
)

var tinyObs = Observation{
	Fub:    tinycore.FubName,
	Valid:  "out_valid",
	Data:   "out_data",
	Halted: "halted_o",
}

func smallCampaign(t *testing.T, p *isa.Program, cfg Config) *Result {
	t.Helper()
	m, err := tinycore.New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m.Sim, tinyObs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCampaignBasics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InjectionsPerBit = 2
	cfg.Window = 500
	res := smallCampaign(t, workload.MD5Like(15), cfg)

	if res.Injections != 195*2 { // 195 sequential bits
		t.Fatalf("injections = %d, want 390", res.Injections)
	}
	if res.Errors+res.Unknown+res.Masked != res.Injections {
		t.Fatal("tallies do not sum")
	}
	if res.Errors == 0 {
		t.Fatal("no faults propagated to outputs — campaign is vacuous")
	}
	if res.Masked == 0 {
		t.Fatal("no faults masked — suspicious for un-ACE bits")
	}
	avf := res.AVF()
	if avf <= 0 || avf >= 1 {
		t.Fatalf("overall AVF = %v", avf)
	}
	if res.GoldenCycles == 0 || res.SimulatedCycles < res.GoldenCycles {
		t.Fatalf("cycle accounting: golden=%d total=%d", res.GoldenCycles, res.SimulatedCycles)
	}
}

func TestPerNodeResults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InjectionsPerBit = 2
	cfg.Window = 400
	res := smallCampaign(t, workload.MD5Like(10), cfg)

	byNode := res.NodeAVF()
	// The PC is catastrophically vulnerable: a flipped PC bit derails
	// fetch. Expect a high AVF.
	pc, ok := byNode[tinycore.FubName+"/pc"]
	if !ok {
		t.Fatalf("pc missing: %v", byNode)
	}
	if pc < 0.2 {
		t.Fatalf("pc AVF = %v, expected substantial", pc)
	}
	for name, avf := range byNode {
		if avf < 0 || avf > 1 {
			t.Fatalf("%s AVF = %v", name, avf)
		}
	}
	// Confidence intervals behave.
	for i := range res.Nodes {
		ci := res.Nodes[i].CI()
		if !ci.Contains(res.Nodes[i].AVF()) {
			t.Fatalf("%s: CI %+v excludes point %v", res.Nodes[i].Node, ci, res.Nodes[i].AVF())
		}
	}
}

func TestDeterministicCampaign(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InjectionsPerBit = 1
	cfg.Window = 200
	a := smallCampaign(t, workload.MD5Like(8), cfg)
	b := smallCampaign(t, workload.MD5Like(8), cfg)
	if a.Errors != b.Errors || a.Unknown != b.Unknown || a.Masked != b.Masked {
		t.Fatalf("campaign not deterministic: %+v vs %+v",
			[3]int{a.Errors, a.Unknown, a.Masked}, [3]int{b.Errors, b.Unknown, b.Masked})
	}
}

func TestWindowTruncationProducesUnknowns(t *testing.T) {
	// A tiny window cannot let faults propagate to the (late) output, so
	// resident corruption classifies as unknown.
	cfg := DefaultConfig()
	cfg.InjectionsPerBit = 2
	cfg.Window = 2
	res := smallCampaign(t, workload.MD5Like(20), cfg)
	if res.Unknown == 0 {
		t.Fatal("expected unknowns with a 2-cycle window")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	m, err := tinycore.New(workload.MD5Like(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m.Sim, tinyObs, Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

// TestEquation2Monotonicity: a longer observation window can only convert
// unknowns into errors or masks, never shrink errors.
func TestWindowGrowthRefinesUnknowns(t *testing.T) {
	base := DefaultConfig()
	base.InjectionsPerBit = 2
	short := base
	short.Window = 30
	long := base
	long.Window = 3000
	a := smallCampaign(t, workload.MD5Like(12), short)
	b := smallCampaign(t, workload.MD5Like(12), long)
	if b.Unknown > a.Unknown {
		t.Fatalf("longer window increased unknowns: %d -> %d", a.Unknown, b.Unknown)
	}
}

func TestParallelCampaignMatchesSerial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InjectionsPerBit = 1
	cfg.Window = 200
	serial := smallCampaign(t, workload.MD5Like(8), cfg)
	cfg.Workers = 4
	parallel := smallCampaign(t, workload.MD5Like(8), cfg)
	if serial.Injections != parallel.Injections ||
		serial.Errors != parallel.Errors ||
		serial.Unknown != parallel.Unknown ||
		serial.Masked != parallel.Masked {
		t.Fatalf("parallel campaign diverged: %+v vs %+v",
			[4]int{serial.Injections, serial.Errors, serial.Unknown, serial.Masked},
			[4]int{parallel.Injections, parallel.Errors, parallel.Unknown, parallel.Masked})
	}
	for i := range serial.Nodes {
		a, b := serial.Nodes[i], parallel.Nodes[i]
		if a != b {
			t.Fatalf("node %s differs: %+v vs %+v", a.Node, a, b)
		}
	}
}

// TestCampaignMetrics pins the sfi.* and rtlsim.* telemetry a -metrics
// run prints: every counter equals the campaign result's field, and
// rtlsim.node_evals is rtlsim.cycles × NumEvalNodes.
func TestCampaignMetrics(t *testing.T) {
	m, err := tinycore.New(workload.MD5Like(15))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.InjectionsPerBit = 1
	cfg.Window = 500
	cfg.Obs = reg
	res, err := Run(m.Sim, tinyObs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	cycles := int64(res.SimulatedCycles + res.GoldenCycles)
	for name, want := range map[string]int64{
		"sfi.campaigns":     1,
		"sfi.injections":    int64(res.Injections),
		"sfi.errors":        int64(res.Errors),
		"sfi.unknown":       int64(res.Unknown),
		"sfi.masked":        int64(res.Masked),
		"sfi.sim_cycles":    int64(res.SimulatedCycles),
		"rtlsim.cycles":     cycles,
		"rtlsim.node_evals": cycles * int64(m.Sim.NumEvalNodes()),
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
