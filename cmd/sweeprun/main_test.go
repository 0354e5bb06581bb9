package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"seqavf/cmd/internal/cliutil"
	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavfio"
	"seqavf/internal/server"
	"seqavf/internal/stats"
	"seqavf/internal/sweep"
)

const (
	testLoop    = 0.3
	testPseudo  = 0.2
	testWindows = 3
)

// fixture writes a small generated netlist, two seeded pAVF tables
// (w0.pavf, w1.pavf) and two seeded interval tables (i0.ipavf,
// i1.ipavf) into dir and returns the netlist text, the design name and
// the text of every table by workload name.
func fixture(t *testing.T, dir string) (string, string, map[string]string) {
	t.Helper()
	cfg := design.DefaultConfig(11)
	cfg.NumFubs = 4
	gen, err := design.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		t.Fatal(err)
	}
	d, err := netlist.Parse(bytes.NewReader(nl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fd, err := netlist.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(fd)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(g, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "design.nl"), nl.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	tables := make(map[string]string)
	write := func(name, file string, text []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, file), text, 0o644); err != nil {
			t.Fatal(err)
		}
		tables[name] = string(text)
	}
	for i, seed := range []uint64{101, 202} {
		var buf bytes.Buffer
		if _, err := pavfio.Write(&buf, seededInputs(a, seed)); err != nil {
			t.Fatal(err)
		}
		write(fmt.Sprintf("w%d", i), fmt.Sprintf("w%d.pavf", i), buf.Bytes())
	}
	for i, seed := range []uint64{303, 404} {
		name := fmt.Sprintf("i%d", i)
		tab := &pavfio.IntervalTable{Workload: name}
		for w := 0; w < testWindows; w++ {
			tab.Windows = append(tab.Windows, pavfio.IntervalWindow{
				Index: w, Start: uint64(w) * 100, End: uint64(w+1) * 100,
				Inputs: seededInputs(a, seed+uint64(w)),
			})
		}
		// A ragged last window makes the time weighting non-uniform.
		tab.Windows[testWindows-1].End += 37 * uint64(i+1)
		var buf bytes.Buffer
		if _, err := pavfio.WriteIntervals(&buf, tab); err != nil {
			t.Fatal(err)
		}
		write(name, name+".ipavf", buf.Bytes())
	}
	return nl.String(), d.Name, tables
}

func testOptions() core.Options {
	opts := core.DefaultOptions()
	opts.LoopPAVF = testLoop
	opts.PseudoPAVF = testPseudo
	return opts
}

// seededInputs draws every read and write port pAVF from a seeded stream.
func seededInputs(a *core.Analyzer, seed uint64) *core.Inputs {
	rng := stats.New(seed)
	in := core.NewInputs()
	for _, terms := range []struct {
		ports []core.StructPort
		into  map[core.StructPort]float64
	}{{a.ReadPortTerms(), in.ReadPorts}, {a.WritePortTerms(), in.WritePorts}} {
		sort.Slice(terms.ports, func(i, j int) bool { return terms.ports[i].String() < terms.ports[j].String() })
		for _, sp := range terms.ports {
			terms.into[sp] = rng.Float64()
		}
	}
	return in
}

// runTool runs sweeprun in-process and decodes its JSON report into v.
func runTool(t *testing.T, dir, glob string, nodes, windows bool, v any) {
	t.Helper()
	out := filepath.Join(dir, "report.json")
	if err := run(obs.New(), &cliutil.Artifacts{}, filepath.Join(dir, "design.nl"), dir, glob,
		1, testLoop, testPseudo, nodes, windows, out); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("report does not decode into %T: %v\n%s", v, err, data)
	}
}

// post sends req to path on a server holding the fixture's design and
// decodes the response into v.
func post(t *testing.T, nl, path string, req, v any) {
	t.Helper()
	s := server.New(server.Config{Obs: obs.New(), Sweep: sweep.Options{Workers: 1}})
	if _, err := s.LoadNetlist("", strings.NewReader(nl), testOptions()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestRunMatchesServerSweep pins sweeprun's whole-run report to POST
// /v1/sweep on the same design with the same tables, with and without
// per-node maps. Only the timing fields may differ.
func TestRunMatchesServerSweep(t *testing.T) {
	for _, nodes := range []bool{false, true} {
		t.Run(fmt.Sprintf("nodes=%v", nodes), func(t *testing.T) {
			dir := t.TempDir()
			nl, name, tables := fixture(t, dir)
			var cli, srv server.SweepResponse
			runTool(t, dir, "*.pavf", nodes, false, &cli)
			req := server.SweepRequest{Design: name, Nodes: nodes}
			for _, w := range []string{"w0", "w1"} {
				req.Workloads = append(req.Workloads, server.SweepWorkload{Name: w, PAVF: tables[w]})
			}
			post(t, nl, "/v1/sweep", req, &srv)
			for _, r := range []*server.SweepResponse{&cli, &srv} {
				r.ElapsedMS, r.PerSec = 0, 0
			}
			if !reflect.DeepEqual(cli, srv) {
				t.Fatalf("report differs from POST /v1/sweep:\ncli    %+v\nserver %+v", cli, srv)
			}
			if len(cli.Results) != 2 || (len(cli.Results[0].SeqAVF) > 0) != nodes {
				t.Fatalf("report shape: %d results, node map present %v, want 2 and %v",
					len(cli.Results), len(cli.Results[0].SeqAVF) > 0, nodes)
			}
		})
	}
}

// TestRunMatchesServerIntervals pins sweeprun -windows to POST
// /v1/sweep/intervals, with and without per-node series.
func TestRunMatchesServerIntervals(t *testing.T) {
	for _, nodes := range []bool{false, true} {
		t.Run(fmt.Sprintf("nodes=%v", nodes), func(t *testing.T) {
			dir := t.TempDir()
			nl, name, tables := fixture(t, dir)
			var cli, srv server.IntervalSweepResponse
			runTool(t, dir, "*.ipavf", nodes, true, &cli)
			req := server.IntervalSweepRequest{Design: name, Nodes: nodes}
			for _, w := range []string{"i0", "i1"} {
				req.Workloads = append(req.Workloads, server.IntervalSweepWorkload{Name: w, Table: tables[w]})
			}
			post(t, nl, "/v1/sweep/intervals", req, &srv)
			cli.ElapsedMS, srv.ElapsedMS = 0, 0
			if !reflect.DeepEqual(cli, srv) {
				t.Fatalf("report differs from POST /v1/sweep/intervals:\ncli    %+v\nserver %+v", cli, srv)
			}
			if len(cli.Results) != 2 || cli.WindowsEvaluated != 2*testWindows ||
				(len(cli.Results[0].SeqAVF) > 0) != nodes {
				t.Fatalf("report shape: %d results, %d windows, node series present %v",
					len(cli.Results), cli.WindowsEvaluated, len(cli.Results[0].SeqAVF) > 0)
			}
		})
	}
}
