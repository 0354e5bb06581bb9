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
	"seqavf/internal/harden"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavfio"
	"seqavf/internal/server"
	"seqavf/internal/stats"
	"seqavf/internal/sweep"
)

const (
	testBudgets  = "12,48,200"
	testTopTerms = 6
	testLoop     = 0.3
	testPseudo   = 0.2
)

// fixture writes a small generated netlist and two seeded pAVF tables
// into dir and returns the netlist text, the analyzer built from it, and
// the table paths.
func fixture(t *testing.T, dir string) (string, *core.Analyzer, []string) {
	t.Helper()
	cfg := design.DefaultConfig(7)
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
	var tables []string
	for i, seed := range []uint64{101, 202} {
		path := filepath.Join(dir, fmt.Sprintf("w%d.pavf", i))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pavfio.Write(f, seededInputs(a, seed)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		tables = append(tables, path)
	}
	return nl.String(), a, tables
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

// runTool runs hardentool in-process and decodes its JSON report; it also
// returns the CSV curve's lines.
func runTool(t *testing.T, dir, pavfFile, pavfDir string) (harden.Response, []string) {
	t.Helper()
	out := filepath.Join(dir, "report.json")
	csvPath := filepath.Join(dir, "curve.csv")
	err := run(obs.New(), &cliutil.Artifacts{}, filepath.Join(dir, "design.nl"), pavfFile, pavfDir, "*.pavf",
		testBudgets, "", "", testTopTerms, 1, testLoop, testPseudo, out, csvPath)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep harden.Response
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not a harden.Response: %v\n%s", err, data)
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	return rep, strings.Split(strings.TrimSpace(string(csv)), "\n")
}

// postHarden sends req to POST /v1/harden on s and decodes the response.
func postHarden(t *testing.T, s *server.Server, req harden.Request) harden.Response {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/harden", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr harden.Response
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/harden: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	return hr
}

func hardenRequest(name string) harden.Request {
	return harden.Request{Design: name, Budgets: []float64{12, 48, 200}, TopTerms: testTopTerms}
}

// samePlans compares the fields a CLI report and a server response must
// agree on; elapsed_ms, sens_cache and the design label may differ.
func samePlans(t *testing.T, cli, srv harden.Response, withWorkloads bool) {
	t.Helper()
	if !reflect.DeepEqual(cli.Plans, srv.Plans) {
		t.Errorf("plans differ:\ncli    %+v\nserver %+v", cli.Plans, srv.Plans)
	}
	if !reflect.DeepEqual(cli.TopTerms, srv.TopTerms) {
		t.Errorf("top_terms differ:\ncli    %+v\nserver %+v", cli.TopTerms, srv.TopTerms)
	}
	if cli.BaseChipAVF != srv.BaseChipAVF || cli.SeqBits != srv.SeqBits || cli.Candidates != srv.Candidates {
		t.Errorf("model differs: cli base=%v bits=%d cands=%d, server base=%v bits=%d cands=%d",
			cli.BaseChipAVF, cli.SeqBits, cli.Candidates, srv.BaseChipAVF, srv.SeqBits, srv.Candidates)
	}
	if withWorkloads && !reflect.DeepEqual(cli.Workloads, srv.Workloads) {
		t.Errorf("workloads differ: cli %v, server %v", cli.Workloads, srv.Workloads)
	}
	if len(cli.Plans) != 3 || len(cli.TopTerms) != testTopTerms {
		t.Fatalf("cli report has %d plans and %d top terms, want 3 and %d",
			len(cli.Plans), len(cli.TopTerms), testTopTerms)
	}
	for _, p := range cli.Plans {
		if len(p.Chosen) == 0 || p.ResidualChipAVF >= p.BaseChipAVF {
			t.Errorf("budget %v plan protects nothing: %+v", p.Budget, p)
		}
	}
}

// TestRunMatchesServerTwoWorkloads pins hardentool's multi-workload run
// to POST /v1/harden on the same design with the same two tables: both
// plan on the mean AVF and rank terms at the mean environment.
func TestRunMatchesServerTwoWorkloads(t *testing.T) {
	dir := t.TempDir()
	nl, _, tables := fixture(t, dir)
	cli, csv := runTool(t, dir, "", dir)

	s := server.New(server.Config{Obs: obs.New(), Sweep: sweep.Options{Workers: 1}})
	if _, err := s.LoadNetlist("pin", strings.NewReader(nl), testOptions()); err != nil {
		t.Fatal(err)
	}
	req := hardenRequest("pin")
	for i, path := range tables {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		req.Workloads = append(req.Workloads, harden.Workload{Name: fmt.Sprintf("w%d", i), PAVF: string(text)})
	}
	samePlans(t, cli, postHarden(t, s, req), true)
	if len(csv) != 1+3 {
		t.Errorf("csv has %d lines, want a header and one row per budget:\n%s", len(csv), strings.Join(csv, "\n"))
	}
}

// TestRunMatchesServerOneWorkload pins hardentool's single-table run: it
// plans on the design solved under that table, which is what the server
// does for a workload-free request on a design registered with that
// solve.
func TestRunMatchesServerOneWorkload(t *testing.T) {
	dir := t.TempDir()
	_, a, tables := fixture(t, dir)
	cli, csv := runTool(t, dir, tables[0], "")

	in, err := pavfio.ReadFile(tables[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Obs: obs.New(), Sweep: sweep.Options{Workers: 1}})
	if _, err := s.AddResult("pin", res); err != nil {
		t.Fatal(err)
	}
	samePlans(t, cli, postHarden(t, s, hardenRequest("pin")), false)
	if !reflect.DeepEqual(cli.Workloads, []string{tables[0]}) {
		t.Errorf("workloads %v, want the table path", cli.Workloads)
	}
	if len(csv) != 1+3 {
		t.Errorf("csv has %d lines, want a header and one row per budget", len(csv))
	}
}
