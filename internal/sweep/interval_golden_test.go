package sweep

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/pavfio"
	"seqavf/internal/tinycore"
	"seqavf/internal/uarch"
	"seqavf/internal/workload"
)

// TestTinycoreGoldenIntervals pins the whole time-resolved pipeline on a
// real design: tinycore runs MD5Like(40) on the quantized performance
// model, the windowed ACE report binds to the netlist ports, the
// interval table round-trips through the pavfio multi-window format
// (pinning its serialization at %.6f), and the engine sweeps the six
// windows as lanes of one blocked batch with a ragged tail. The golden
// fixture holds each window's per-sequential-node seqAVF plus the
// summary statistics as hexadecimal float64 literals compared bit for
// bit; run with -update to bless an intentional change.
func TestTinycoreGoldenIntervals(t *testing.T) {
	p := workload.MD5Like(40)
	fd, err := tinycore.FlatDesign(len(p.Code))
	if err != nil {
		t.Fatalf("tinycore: %v", err)
	}
	g, err := graph.Build(fd)
	if err != nil {
		t.Fatalf("graph: %v", err)
	}
	a, err := core.NewAnalyzer(g, core.DefaultOptions())
	if err != nil {
		t.Fatalf("analyzer: %v", err)
	}
	cfg := uarch.DefaultConfig()
	cfg.Window = 150 // 867-cycle run: five full windows and a ragged sixth
	perf, err := uarch.Run(p, cfg)
	if err != nil {
		t.Fatalf("uarch: %v", err)
	}
	if perf.Intervals == nil {
		t.Fatal("windowed run produced no interval report")
	}
	perWindow, err := tinycore.BindIntervals(perf.Intervals)
	if err != nil {
		t.Fatalf("BindIntervals: %v", err)
	}

	// Round-trip through the multi-window table format so the fixture
	// also pins the serialized representation.
	tab := &pavfio.IntervalTable{Workload: "md5_40"}
	for i, win := range perf.Intervals.Windows {
		tab.Windows = append(tab.Windows, pavfio.IntervalWindow{
			Index: i, Start: win.Start, End: win.End, Inputs: perWindow[i],
		})
	}
	var buf bytes.Buffer
	if _, err := pavfio.WriteIntervals(&buf, tab); err != nil {
		t.Fatalf("WriteIntervals: %v", err)
	}
	back, err := pavfio.ParseIntervals("roundtrip", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseIntervals: %v", err)
	}
	if back.Workload != "md5_40" || len(back.Windows) != len(tab.Windows) {
		t.Fatalf("round trip lost shape: %q, %d windows", back.Workload, len(back.Windows))
	}

	base, err := tinycore.BindInputs(perf.Report)
	if err != nil {
		t.Fatalf("BindInputs: %v", err)
	}
	res, err := a.Solve(base)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	iw := NewIntervalWorkload(back.Workload, back)
	// Block width 4 over 6 window lanes: one full block and one ragged.
	eng := newWidth(Options{Workers: 1}, 4)
	b, err := eng.sweepIntervals(context.Background(), res, []IntervalWorkload{iw}, true)
	if err != nil {
		t.Fatalf("sweepIntervals: %v", err)
	}
	out := b.Workloads[0]
	// The same window inputs through the materializing sweep, for the
	// per-vertex sums the summary sink never builds.
	lanes := make([]Workload, len(iw.Inputs))
	for wi, in := range iw.Inputs {
		lanes[wi] = Workload{Name: fmt.Sprintf("w%d", wi), Inputs: in}
	}
	vb, err := eng.Sweep(res, lanes)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}

	got := make(map[string]string)
	hex := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	for node, series := range out.SeqAVF {
		for wi, avf := range series {
			got[fmt.Sprintf("w%d/%s", wi, node)] = hex(avf)
		}
	}
	for wi, r := range vb.Results {
		got[fmt.Sprintf("w%d/__chipavf", wi)] = hex(out.Summary.ChipAVF[wi])
		// The seqAVF nodes above are tinycore's FSM registers, whose
		// closed forms are insensitive to the measured inputs; the full
		// AVF-vector sum is what varies window to window and pins the
		// input-dependent combinational arithmetic.
		sum := 0.0
		for _, avf := range r.AVF {
			sum += avf
		}
		got[fmt.Sprintf("w%d/__avfsum", wi)] = hex(sum)
	}
	got["__summary/time_weighted_mean"] = hex(out.Summary.TimeWeightedMean)
	got["__summary/peak_chipavf"] = hex(out.Summary.PeakChipAVF)
	got["__summary/peak_window"] = strconv.Itoa(out.Summary.PeakWindow)
	got["__summary/peak_to_mean"] = hex(out.Summary.PeakToMean)
	if len(got) < 10 {
		t.Fatalf("suspiciously small interval matrix: %d entries", len(got))
	}

	path := filepath.Join("testdata", "tinycore_intervals.golden")
	if *updateGolden {
		writeIntervalGolden(t, path, got)
		t.Logf("rewrote %s with %d entries", path, len(got))
	}
	want := readBlockGolden(t, path)
	if len(got) != len(want) {
		t.Errorf("matrix shape drifted: golden has %d entries, current run has %d", len(want), len(got))
	}
	for key, wv := range want {
		gv, ok := got[key]
		if !ok {
			t.Errorf("entry %s present in golden but missing from current run", key)
			continue
		}
		if gv != wv {
			t.Errorf("entry %s drifted: golden %s, got %s — interval pipeline output changed; run with -update only if intentional",
				key, wv, gv)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("entry %s missing from golden (run with -update if intentional)", key)
		}
	}

	// The packed lanes must match each window's inputs re-evaluated
	// through the closed forms bit for bit — the windows-as-lanes
	// contract on the real design — on both sinks.
	for wi, in := range iw.Inputs {
		ref := reevaluated(t, res, in)
		bitIdentical(t, fmt.Sprintf("window %d", wi), vb.Results[wi].AVF, ref.AVF)
		checkWindow(t, fmt.Sprintf("window %d", wi), out, wi, ref)
	}
}

func writeIntervalGolden(t *testing.T, path string, m map[string]string) {
	t.Helper()
	writeGoldenWithHeader(t, path, m,
		"# tinycore interval-sweep AVF matrix: w<idx>/node -> hexfloat seqAVF (exact bits)\n"+
			"# __chipavf is the window's weighted sequential AVF; __avfsum its full AVF vector\n"+
			"# summed in vertex order; __summary pins the time-series stats\n"+
			"# regenerate: go test ./internal/sweep/ -run TestTinycoreGoldenIntervals -update\n")
}
