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
	"sort"
	"strings"
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
	if d := equationDiff(after.Result, cold); d != "" {
		t.Fatalf("edited design differs from a cold solve: %s", d)
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

// TestEditDropsSupersededPlans: an edit drops the replaced version's
// plan from the engine cache, so after a run of edits the cache holds no
// more plans than there are live designs; a plan another live design
// still uses stays.
func TestEditDropsSupersededPlans(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	eng := s.Engine()
	cfg := design.DefaultConfig(11)
	cfg.NumFubs = 3
	gen, err := design.Generate(cfg)
	if err != nil {
		t.Fatalf("design.Generate: %v", err)
	}
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		t.Fatalf("netlist.Write: %v", err)
	}
	d, err := s.LoadNetlist("", bytes.NewReader(nl.Bytes()), core.DefaultOptions())
	if err != nil {
		t.Fatalf("LoadNetlist: %v", err)
	}
	// A second name for the same result shares its fingerprint.
	if _, err := s.AddResult("twin", d.Result); err != nil {
		t.Fatalf("AddResult(twin): %v", err)
	}
	if got := eng.CachedPlans(); got != 3 {
		t.Fatalf("%d plans cached for alpha, beta and one netlist under two names, want 3", got)
	}
	// Ten edits, each with a fresh flop in another FUB, so every version
	// has a never-seen fingerprint.
	mod := func(i int) *netlist.Module {
		return gen.Design.Modules[gen.Design.Fubs[i%len(gen.Design.Fubs)].Module]
	}
	for i := 0; i < 10; i++ {
		m := mod(i)
		var src *netlist.Node
		for _, n := range m.Nodes {
			if (n.Kind == netlist.KindComb || n.Kind == netlist.KindSeq) && n.Class != netlist.ClassDebug {
				src = n
				break
			}
		}
		if src == nil {
			t.Fatalf("module %s has no eligible source node", m.Name)
		}
		m.Nodes = append(m.Nodes, &netlist.Node{
			Name: fmt.Sprintf("eco_%d", i), Kind: netlist.KindSeq, Width: src.Width, Inputs: []string{src.Name},
		})
		var edited bytes.Buffer
		err := netlist.Write(&edited, gen.Design)
		m.Nodes = m.Nodes[:len(m.Nodes)-1]
		if err != nil {
			t.Fatalf("netlist.Write (edit %d): %v", i, err)
		}
		if d, _, err = s.EditNetlistContext(context.Background(), d, &edited, core.DefaultOptions()); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		// alpha, beta, twin's plan and the live version's.
		if got := eng.CachedPlans(); got != 4 {
			t.Fatalf("after edit %d: %d plans cached for 4 live designs, want 4", i, got)
		}
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

// equationDiff compares two results' closed forms equation by equation:
// vertex v's forward and backward sets, each named by its terms, so the
// two analyzers' universes need not intern terms in the same order. It
// returns "" when every equation matches, else the count of differing
// vertex sides and the first one, rendered both ways.
func equationDiff(got, want *core.Result) string {
	if len(got.Fwd) != len(want.Fwd) {
		return fmt.Sprintf("%d vertices, want %d", len(got.Fwd), len(want.Fwd))
	}
	// canon renders each slot of r's set table once, terms sorted by name.
	canon := func(r *core.Result) []string {
		u := r.Analyzer.Universe()
		out := make([]string, r.Sets.Len())
		for s := range out {
			ids := r.Sets.SetIDs(int32(s))
			names := make([]string, len(ids))
			for i, id := range ids {
				names[i] = u.Term(id).String()
			}
			sort.Strings(names)
			out[s] = strings.Join(names, " + ")
		}
		return out
	}
	gc, wc := canon(got), canon(want)
	side := func(c []string, slot int32) string {
		if slot < 0 {
			return "unknown"
		}
		return c[slot]
	}
	n, first := 0, ""
	for v := range want.Fwd {
		for _, d := range []struct {
			dir    string
			gs, ws int32
		}{{"fwd", got.Fwd[v], want.Fwd[v]}, {"bwd", got.Bwd[v], want.Bwd[v]}} {
			g, w := side(gc, d.gs), side(wc, d.ws)
			if g == w {
				continue
			}
			if n++; first == "" {
				first = fmt.Sprintf("%s %s: %s, want %s", want.Analyzer.G.Name(graph.VertexID(v)), d.dir, g, w)
			}
		}
	}
	if n > 0 {
		return fmt.Sprintf("%d vertex sides differ, first %s", n, first)
	}
	return ""
}

// TestChainedEditsMatchColdSolve chains 64 one-flop ECO edits over the
// XeonLike design (seed 2027), the edit benchmark's shape, through
// EditNetlistContext, and compares every edit's live closed forms with a
// cold solve of the same netlist bytes, equation by equation. It also
// bounds the walk: on average an edit recomputes fewer vertex sides
// (core.fwd_vertices + core.bwd_vertices) than the 13,414 the seeded
// FUB relaxation walked per edit on this chain.
func TestChainedEditsMatchColdSolve(t *testing.T) {
	gen, err := design.Generate(design.DefaultConfig(2027))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	s := New(Config{Obs: reg, Sweep: sweep.Options{Workers: 1}})
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		t.Fatal(err)
	}
	d, err := s.LoadNetlist("", &nl, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	edited := ecoEdits(t, gen.Design)
	walked := func() int64 {
		return reg.Counter("core.fwd_vertices").Load() + reg.Counter("core.bwd_vertices").Load()
	}
	const edits = 64
	var total, moved int64
	ctx := context.Background()
	for i := 0; i < edits; i++ {
		body := edited(i)
		before := walked()
		next, inc, err := s.EditNetlistContext(ctx, d, bytes.NewReader(body), core.DefaultOptions())
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if inc == nil {
			t.Fatalf("edit %d fell back to a cold solve", i)
		}
		total += walked() - before
		moved += int64(inc.FubsActive)
		if diff := equationDiff(next.Result, coldSolve(t, body)); diff != "" {
			t.Fatalf("edit %d (%+v): %s", i, *inc, diff)
		}
		d = next
	}
	mean := float64(total) / edits
	t.Logf("%.1f vertex sides recomputed and %.2f FUBs moved per edit", mean, float64(moved)/edits)
	if mean >= 13414 {
		t.Fatalf("%.1f vertex sides recomputed per edit, want fewer than 13,414", mean)
	}
}

// TestEditedArtifactMatchesColdUpload: an edit persists its result under
// the edited design's fingerprint, so a later upload of the same bytes
// through a fresh server on the same store warm-starts from it. After
// each of four chained edits, what that upload serves must be what a
// storeless cold upload serves, equation by equation: what a design
// answers may not depend on how it was reached.
func TestEditedArtifactMatchesColdUpload(t *testing.T) {
	gen, err := design.Generate(design.DefaultConfig(2027))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	open := func() *Server {
		st, err := artifact.Open(dir, artifact.Options{Obs: obs.New()})
		if err != nil {
			t.Fatal(err)
		}
		return New(Config{Obs: obs.New(), Artifacts: st, Sweep: sweep.Options{Workers: 1}})
	}
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		t.Fatal(err)
	}
	s := open()
	d, err := s.LoadNetlist("", &nl, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	edited := ecoEdits(t, gen.Design)
	for i := 0; i < 4; i++ {
		body := edited(i)
		if d, _, err = s.EditNetlistContext(context.Background(), d, bytes.NewReader(body), core.DefaultOptions()); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		fresh := open()
		warm, err := fresh.LoadNetlist("", bytes.NewReader(body), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if n := fresh.reg.Counter("artifact.warm_start").Load(); n != 1 {
			t.Fatalf("upload of edit %d's bytes: artifact.warm_start = %d, want 1", i, n)
		}
		cold, err := New(Config{Obs: obs.New(), Sweep: sweep.Options{Workers: 1}}).LoadNetlist("", bytes.NewReader(body), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if diff := equationDiff(warm.Result, cold.Result); diff != "" {
			t.Fatalf("edit %d: warm upload from the edit's artifact differs from a cold upload: %s", i, diff)
		}
	}
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

// ecoEdits returns the one-flop edit generator the edit benchmark and
// the chained-edit test share: edit i registers a signal of FUB i's
// module (the first non-debug combinational or sequential node, as the
// edit tests pick it) behind a fresh flop eco_<i>, and returns d's
// netlist with that flop alone added. d is restored after each call.
func ecoEdits(tb testing.TB, d *netlist.Design) func(i int) []byte {
	tb.Helper()
	srcs := make([]*netlist.Node, len(d.Fubs))
	for f, fi := range d.Fubs {
		for _, n := range d.Modules[fi.Module].Nodes {
			if (n.Kind == netlist.KindComb || n.Kind == netlist.KindSeq) && n.Class != netlist.ClassDebug {
				srcs[f] = n
				break
			}
		}
		if srcs[f] == nil {
			tb.Fatalf("FUB %s has no signal to register", fi.Name)
		}
	}
	return func(i int) []byte {
		f := i % len(srcs)
		mod := d.Modules[d.Fubs[f].Module]
		mod.Nodes = append(mod.Nodes, &netlist.Node{
			Name: fmt.Sprintf("eco_%d", i), Kind: netlist.KindSeq, Width: srcs[f].Width, Inputs: []string{srcs[f].Name},
		})
		var out bytes.Buffer
		err := netlist.Write(&out, d)
		mod.Nodes = mod.Nodes[:len(mod.Nodes)-1]
		if err != nil {
			tb.Fatal(err)
		}
		return out.Bytes()
	}
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
	edited := ecoEdits(b, gen.Design)
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
