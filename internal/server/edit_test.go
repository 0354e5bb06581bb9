package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"seqavf/internal/artifact"
	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/graph"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/sweep"
)

// TestEditDesignEndpoint drives the ECO path end to end over HTTP: upload
// a design, POST an edited netlist to /v1/designs/{name}/edit, and check
// that the re-solve was incremental (some FUBs reused), the registration
// was replaced in place, the replacement still sweeps, and the answer
// matches a cold solve of the edited netlist.
func TestEditDesignEndpoint(t *testing.T) {
	s, reg, _ := newTestServer(t, Config{MaxBodyBytes: 64 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg := design.DefaultConfig(7)
	cfg.NumFubs = 4
	gen, err := design.Generate(cfg)
	if err != nil {
		t.Fatalf("design.Generate: %v", err)
	}
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		t.Fatalf("netlist.Write: %v", err)
	}
	resp, b := postJSON(t, http.DefaultClient, ts.URL+"/v1/designs", nl.Bytes())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload returned %d: %s", resp.StatusCode, b)
	}
	name := gen.Design.Name
	before := s.Design(name)
	designsBefore := reg.Gauge("server.designs").Load()

	edited, width := addFlop(t, gen.Design)
	resp, b = postJSON(t, http.DefaultClient, ts.URL+"/v1/designs/"+name+"/edit", edited)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edit returned %d: %s", resp.StatusCode, b)
	}
	var er EditResponse
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatalf("edit response: %v", err)
	}
	if er.Incremental == nil {
		t.Fatalf("edit fell back to a cold solve: %s", b)
	}
	if er.Incremental.FubsDirty == 0 || er.Incremental.FubsDirty >= er.Incremental.FubsTotal {
		t.Fatalf("add-flop dirtied %d of %d FUBs", er.Incremental.FubsDirty, er.Incremental.FubsTotal)
	}
	if !er.Incremental.Converged {
		t.Fatalf("incremental re-solve did not converge: %+v", er.Incremental)
	}
	if er.Vertices != before.Vertices+width {
		t.Fatalf("edited design has %d vertices, want %d + %d", er.Vertices, before.Vertices, width)
	}

	// Replaced, not added: same design count, new registration.
	if got := reg.Gauge("server.designs").Load(); got != designsBefore {
		t.Fatalf("designs gauge moved %v -> %v on edit", designsBefore, got)
	}
	after := s.Design(name)
	if after == before {
		t.Fatal("edit did not replace the registered design")
	}

	// The replacement must agree with a cold solve of the edited netlist.
	cold := coldSolve(t, edited)
	if d := core.MaxAbsDiff(after.Result, cold); !(d <= cold.Analyzer.Opts.Epsilon) {
		t.Fatalf("edited design diverges from cold solve by %v", d)
	}

	// And it still serves sweeps.
	body := sweepBody(t, name, after.Result, 2, 500)
	resp, b = postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep of edited design returned %d: %s", resp.StatusCode, b)
	}

	// Editing an unregistered name is 404, not a fresh registration.
	resp, b = postJSON(t, http.DefaultClient, ts.URL+"/v1/designs/nonexistent/edit", edited)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("edit of unknown design returned %d: %s", resp.StatusCode, b)
	}
	if got := reg.Counter("server.edit_requests").Load(); got != 2 {
		t.Fatalf("edit_requests counter = %v, want 2", got)
	}
}

// TestEditColdFallback: when the live design's result cannot seed an
// incremental re-solve, the edit still lands — 200, the cold solve's
// exact bits — and the fallback is counted.
func TestEditColdFallback(t *testing.T) {
	s, reg, _ := newTestServer(t, Config{MaxBodyBytes: 64 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg := design.DefaultConfig(9)
	cfg.NumFubs = 3
	gen, err := design.Generate(cfg)
	if err != nil {
		t.Fatalf("design.Generate: %v", err)
	}
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		t.Fatalf("netlist.Write: %v", err)
	}
	// Register a result whose AVF vector is one short of its design:
	// PriorState rejects it, so no incremental seed exists.
	live := *coldSolve(t, nl.Bytes())
	live.AVF = live.AVF[:len(live.AVF)-1]
	name := gen.Design.Name
	if _, err := s.AddResult(name, &live); err != nil {
		t.Fatalf("AddResult: %v", err)
	}

	edited, _ := addFlop(t, gen.Design)
	resp, b := postJSON(t, http.DefaultClient, ts.URL+"/v1/designs/"+name+"/edit", edited)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edit returned %d: %s", resp.StatusCode, b)
	}
	var er EditResponse
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatalf("edit response: %v", err)
	}
	if er.Incremental != nil {
		t.Fatalf("edit reports an incremental re-solve from an unusable prior: %s", b)
	}
	got, want := s.Design(name).Result, coldSolve(t, edited)
	if len(got.AVF) != len(want.AVF) {
		t.Fatalf("edited design has %d AVFs, cold solve %d", len(got.AVF), len(want.AVF))
	}
	for v, x := range want.AVF {
		if math.Float64bits(got.AVF[v]) != math.Float64bits(x) {
			t.Fatalf("vertex %d: AVF %v, cold solve %v", v, got.AVF[v], x)
		}
	}
	if n := reg.Counter("server.edit_cold_fallbacks").Load(); n != 1 {
		t.Fatalf("server.edit_cold_fallbacks = %d, want 1", n)
	}
}

// addFlop returns d's netlist after the ECO the edit tests apply:
// register one existing signal of the first FUB's module behind a fresh
// flop — the hierarchical form of graphtest's add-flop — and the width
// of that flop. d is edited in place.
func addFlop(t *testing.T, d *netlist.Design) ([]byte, int) {
	t.Helper()
	mod := d.Modules[d.Fubs[0].Module]
	var src *netlist.Node
	for _, n := range mod.Nodes {
		if (n.Kind == netlist.KindComb || n.Kind == netlist.KindSeq) && n.Class != netlist.ClassDebug {
			src = n
			break
		}
	}
	if src == nil {
		t.Fatalf("module %s has no eligible source node", mod.Name)
	}
	mod.Nodes = append(mod.Nodes, &netlist.Node{
		Name: "eco_q", Kind: netlist.KindSeq, Width: src.Width, Inputs: []string{src.Name},
	})
	var edited bytes.Buffer
	if err := netlist.Write(&edited, d); err != nil {
		t.Fatalf("netlist.Write (edited): %v", err)
	}
	return edited.Bytes(), src.Width
}

// coldSolve solves a netlist from scratch the way an upload does.
func coldSolve(t *testing.T, nl []byte) *core.Result {
	t.Helper()
	parsed, err := netlist.Parse(bytes.NewReader(nl))
	if err != nil {
		t.Fatal(err)
	}
	fd, err := netlist.Flatten(parsed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(fd)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(g, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Solve(neutralInputs(a))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// BenchmarkEditNetlist times the ECO edit in process, shaped like
// seqavfbench's eco_loop: the XeonLike design (seed 2027) behind an
// artifact store bounded like seqavfd's default, then one-flop edits
// that rotate over the FUBs. Edit i registers a signal of FUB i's module
// behind a fresh flop eco_<i> and drops edit i-1's flop, so every edit
// carries a never-seen fingerprint and pays the plan compile and the
// artifact write. Rendering the edited netlist is not timed; parse,
// analysis, prior state, incremental re-solve, compile and store are.
func BenchmarkEditNetlist(b *testing.B) { benchEditNetlist(b, design.DefaultConfig(2027)) }

// BenchmarkEditNetlistPaperScale is BenchmarkEditNetlist on
// design.PaperScaleConfig(2027): 2048 FUBs, about 2.09M bit vertices.
// Each edit writes a whole artifact of tens of MB; run it with a small
// fixed -benchtime such as 3x.
func BenchmarkEditNetlistPaperScale(b *testing.B) {
	benchEditNetlist(b, design.PaperScaleConfig(2027))
}

// BenchmarkColdLoadPaperScale times LoadNetlist on
// design.PaperScaleConfig(2027) with no artifact store: parse, analysis,
// the cold solve and the plan compile. Rendering the netlist is not
// timed.
func BenchmarkColdLoadPaperScale(b *testing.B) {
	gen, err := design.Generate(design.PaperScaleConfig(2027))
	if err != nil {
		b.Fatal(err)
	}
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		b.Fatal(err)
	}
	var s *Server
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = New(Config{Obs: obs.New(), Sweep: sweep.Options{Workers: 1}})
		if _, err := s.LoadNetlist("", bytes.NewReader(nl.Bytes()), core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportHeap(b, s)
}

// reportHeap reports the live heap after a GC, in MiB, while live (the
// benchmark's server) is still reachable: what one loaded design holds
// once the garbage is gone.
func reportHeap(b *testing.B, live *Server) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap-MiB")
	runtime.KeepAlive(live)
}

// benchEditNetlist runs the edit benchmark on the design cfg generates.
func benchEditNetlist(b *testing.B, cfg design.Config) {
	gen, err := design.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.New()
	st, err := artifact.Open(b.TempDir(), artifact.Options{MaxBytes: 1 << 30, Obs: reg})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Obs: reg, Artifacts: st, Sweep: sweep.Options{Workers: 1}})
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		b.Fatal(err)
	}
	d, err := s.LoadNetlist("", &nl, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	// One eligible source signal per FUB, as the edit tests pick it.
	srcs := make([]*netlist.Node, len(gen.Design.Fubs))
	for f, fi := range gen.Design.Fubs {
		for _, n := range gen.Design.Modules[fi.Module].Nodes {
			if (n.Kind == netlist.KindComb || n.Kind == netlist.KindSeq) && n.Class != netlist.ClassDebug {
				srcs[f] = n
				break
			}
		}
		if srcs[f] == nil {
			b.Fatalf("FUB %s has no signal to register", fi.Name)
		}
	}
	edited := func(i int) []byte {
		f := i % len(srcs)
		mod := gen.Design.Modules[gen.Design.Fubs[f].Module]
		mod.Nodes = append(mod.Nodes, &netlist.Node{
			Name: fmt.Sprintf("eco_%d", i), Kind: netlist.KindSeq, Width: srcs[f].Width, Inputs: []string{srcs[f].Name},
		})
		var out bytes.Buffer
		err := netlist.Write(&out, gen.Design)
		mod.Nodes = mod.Nodes[:len(mod.Nodes)-1]
		if err != nil {
			b.Fatal(err)
		}
		return out.Bytes()
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		body := edited(i)
		b.StartTimer()
		next, inc, err := s.EditNetlistContext(ctx, d, bytes.NewReader(body), core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if inc == nil {
			b.Fatalf("edit %d fell back to a cold solve", i)
		}
		d = next
	}
	b.StopTimer()
	reportHeap(b, s)
}
