package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"seqavf/internal/server"
)

// buildServer builds seqavfd from the enclosing tree.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "seqavfd")
	out, err := exec.Command("go", "build", "-o", bin, "seqavf/cmd/seqavfd").CombinedOutput()
	if err != nil {
		t.Fatalf("building seqavfd: %v\n%s", err, out)
	}
	return bin
}

// TestShortRunEveryWorkload runs each workload briefly against the real
// server, traced, and checks that every named metric is emitted and no
// op failed.
func TestShortRunEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts seqavfd")
	}
	bin := buildServer(t)
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			rep, err := run(config{
				workload: wl, seed: 7, seconds: 0.5, trace: true,
				root: t.TempDir(), bin: bin, setups: 2, warmup: 2, replayOps: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			rep.print(&out)
			for trace, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
				res := rep.result(trace)
				if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
					t.Fatalf("attempted %d, failed %d: %v\n%s", res.Attempted, res.Failed, rep.firstErr, out.String())
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %+v, want a finite value in %s", d.name, m, d.unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			}
			if !bytes.Contains(out.Bytes(), []byte("dominant layer on "+wl)) {
				t.Errorf("report names no dominant layer:\n%s", out.String())
			}
		})
	}
}

// TestTamperedSummaryFails flips one summary value of a correct response
// by one ulp; the checker must reject it, while a response that differs
// only in its timing fields passes.
func TestTamperedSummaryFails(t *testing.T) {
	in, err := newInputs("sweep_summary", 3)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := newChecker(in)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newReplayer(in, "")
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.op(1)
	if err != nil {
		t.Fatal(err)
	}
	var resp server.SweepResponse
	if err := json.Unmarshal(out[0], &resp); err != nil {
		t.Fatal(err)
	}
	encode := func() []byte {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	resp.ElapsedMS, resp.PerSec = 123.456, 7.5e3
	if err := ck.checkSweep(1, encode()); err != nil {
		t.Fatalf("response differing only in timings rejected: %v", err)
	}
	s := &resp.Results[5].Summary
	s.WeightedSeqAVF = math.Nextafter(s.WeightedSeqAVF, 2)
	if err := ck.checkSweep(1, encode()); err == nil {
		t.Fatal("summary value one ulp off was accepted")
	}
}

// TestECOChecks covers the property checks on ECO answers.
func TestECOChecks(t *testing.T) {
	if err := checkEdit([]byte(`{"name":"d","vertices":10,"incremental":null}`), 10); err == nil {
		t.Error("edit that fell back to a cold solve was accepted")
	}
	if err := checkEdit([]byte(`{"name":"d","vertices":10,"incremental":{"converged":true}}`), 12); err == nil {
		t.Error("edit with the wrong vertex count was accepted")
	}
	if err := checkEdit([]byte(`{"name":"d","vertices":12,"incremental":{"converged":true}}`), 12); err != nil {
		t.Errorf("good edit rejected: %v", err)
	}
	plans := `[{"budget":64,"base_chip_avf":0.2,"residual_chip_avf":0.1},{"budget":256,"base_chip_avf":0.2,"residual_chip_avf":0.1},` +
		`{"budget":1024,"base_chip_avf":0.2,"residual_chip_avf":0.1},{"budget":4096,"base_chip_avf":0.2,"residual_chip_avf":%s}]`
	if err := checkHarden([]byte(`{"plans":` + fmt.Sprintf(plans, "0.05") + `}`)); err != nil {
		t.Errorf("good harden answer rejected: %v", err)
	}
	if err := checkHarden([]byte(`{"plans":` + fmt.Sprintf(plans, "0.3") + `}`)); err == nil {
		t.Error("plan with a residual above the base was accepted")
	}
}

// TestSameSeedSameInputs checks that the seed alone decides the load.
func TestSameSeedSameInputs(t *testing.T) {
	a, err := newInputs("eco_loop", 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newInputs("eco_loop", 9)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newInputs("eco_loop", 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Errorf("same seed, digests %s and %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 9 and 10 gave the same inputs (%s)", a.digest)
	}
}

// TestBenchmarkJSONNamesMetrics keeps BENCHMARK.json in step with the
// metrics the command emits.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i])
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the command emits %d", len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("metric %d is %s [%s], want %s [%s]", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}
