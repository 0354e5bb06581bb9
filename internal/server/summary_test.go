package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/obs"
	"seqavf/internal/pavfio"
	"seqavf/internal/sweep"
)

// findSpan returns the first span named name in the subtree, depth first.
func findSpan(sp obs.SpanSnapshot, name string) *obs.SpanSnapshot {
	if sp.Name == name {
		return &sp
	}
	for _, c := range sp.Children {
		if got := findSpan(c, name); got != nil {
			return got
		}
	}
	return nil
}

// TestSweepSummaryTelemetry: /v1/sweep and /v1/sweep/intervals both run
// on the summary sink. The sweep.eval span says so (output=summary),
// sweep.workloads_reduced counts every workload and window lane, and
// the flight record still gets its plan and eval stage times from the
// sweep.plan / sweep.eval spans.
func TestSweepSummaryTelemetry(t *testing.T) {
	s, reg, results := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workloads = 5
	resp, b := postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep",
		sweepBody(t, "alpha", results["alpha"], workloads, 7))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, b)
	}
	resp, b = postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep/intervals",
		intervalBody(t, "alpha", results["alpha"], 1, 3, 11, false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interval sweep: %d %s", resp.StatusCode, b)
	}

	var outputs []string
	for _, root := range reg.Snapshot().Spans {
		if root.Name != "server.request" {
			continue
		}
		ev := findSpan(root, "sweep.eval")
		if ev == nil || findSpan(root, "sweep.plan") == nil {
			t.Fatalf("request span tree lacks sweep.plan / sweep.eval: %+v", root)
		}
		out, _ := ev.Attrs["output"].(string)
		endpoint, _ := root.Attrs["endpoint"].(string)
		outputs = append(outputs, endpoint+"="+out)
	}
	if got, want := strings.Join(outputs, " "), "/v1/sweep=summary /v1/sweep/intervals=summary"; got != want {
		t.Fatalf("sweep.eval outputs %q, want %q", got, want)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	_, scalars := parsePromText(t, string(text))
	if got := scalars["sweep_workloads_reduced"]; got != workloads+3 {
		t.Fatalf("sweep_workloads_reduced = %v, want %d", got, workloads+3)
	}
	if got := scalars["sweep_workloads"]; got != workloads+3 {
		t.Fatalf("sweep_workloads = %v, want %d", got, workloads+3)
	}

	for _, rec := range s.flight.Snapshot() {
		if rec.PlanSeconds <= 0 || rec.EvalSeconds <= 0 {
			t.Fatalf("flight record %s: plan %vs eval %vs, want both > 0", rec.Endpoint, rec.PlanSeconds, rec.EvalSeconds)
		}
	}
}

// TestSweepSummaryAllocs: a 64-workload nodes:false /v1/sweep must not
// materialize a per-vertex AVF vector per workload. The whole request —
// JSON decode, 64 table parses, the sweep, the response — must
// allocate well under the 64 x NumVerts float64s those vectors alone
// would take, while the materializing engine sweep of the same tables
// allocates at least that much (so the bound does discriminate).
func TestSweepSummaryAllocs(t *testing.T) {
	cfg := graphtest.Default(2027)
	cfg.Width, cfg.Layers, cfg.LayerNodes = 32, 8, 6
	d, err := graphtest.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(d.Graph, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Solve(neutralInputs(a))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Obs: obs.New(), Sweep: sweep.Options{Workers: 1}})
	if _, err := s.AddResult("wide", res); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	const workloads = 64
	body := sweepBody(t, "wide", res, workloads, 90)
	vectorBytes := float64(workloads * a.G.NumVerts() * 8)
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("sweep: %d %s", rec.Code, rec.Body.Bytes())
		}
	}
	serve() // plan compile and layout build are one-time costs
	served := bytesPerRun(3, serve)

	var req SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	ws := make([]sweep.Workload, workloads)
	for i, w := range req.Workloads {
		in, err := pavfio.Parse(w.Name, strings.NewReader(w.PAVF))
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = sweep.Workload{Name: w.Name, Inputs: in}
	}
	eng := sweep.New(sweep.Options{Workers: 1})
	materialized := bytesPerRun(3, func() {
		if _, err := eng.Sweep(res, ws); err != nil {
			t.Fatal(err)
		}
	})

	t.Logf("%d verts: served %.0f KiB/request, materializing sweep %.0f KiB, vectors %.0f KiB",
		a.G.NumVerts(), served/1024, materialized/1024, vectorBytes/1024)
	if materialized < vectorBytes {
		t.Fatalf("materializing sweep allocated %.0f B, below the %.0f B of its vectors: the bound below cannot discriminate",
			materialized, vectorBytes)
	}
	if served > vectorBytes/4 {
		t.Fatalf("served sweep allocated %.0f B per request, want well under the %.0f B of %d per-vertex vectors",
			served, vectorBytes, workloads)
	}
}

// bytesPerRun returns the mean heap bytes one call of f allocates.
func bytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
