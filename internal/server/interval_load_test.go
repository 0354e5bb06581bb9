package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"seqavf/internal/core"
	"seqavf/internal/obs"
	"seqavf/internal/pavfio"
	"seqavf/internal/sweep"
)

// intervalTable renders a T-window interval table for res's design, each
// window a seeded pAVF table over contiguous 100-cycle spans.
func intervalTable(t testing.TB, name string, res *core.Result, windows int, seedBase uint64) string {
	t.Helper()
	var sb strings.Builder
	if name != "" {
		fmt.Fprintf(&sb, "# workload %s\n", name)
	}
	for w := 0; w < windows; w++ {
		fmt.Fprintf(&sb, "# window %d %d %d\n", w, w*100, (w+1)*100)
		sb.WriteString(pavfText(t, res, seedBase+uint64(w)))
	}
	return sb.String()
}

// intervalBody builds a POST /v1/sweep/intervals body.
func intervalBody(t testing.TB, designName string, res *core.Result, workloads, windows int, seedBase uint64, nodes bool) []byte {
	t.Helper()
	req := IntervalSweepRequest{Design: designName, Nodes: nodes}
	for i := 0; i < workloads; i++ {
		name := fmt.Sprintf("iw%d", i)
		req.Workloads = append(req.Workloads, IntervalSweepWorkload{
			Name:  name,
			Table: intervalTable(t, name, res, windows, seedBase+uint64(i)*1000),
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSweepIntervalsEndpoint checks the time-resolved endpoint end to
// end: response shape, per-node time series, summary statistics, and
// value-exact agreement with a reference engine fed the same tables.
func TestSweepIntervalsEndpoint(t *testing.T) {
	s, _, results := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const windows = 5
	body := intervalBody(t, "alpha", results["alpha"], 2, windows, 9000, true)
	resp, b := postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep/intervals", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("intervals: %d %s", resp.StatusCode, b)
	}
	var out IntervalSweepResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("response %q: %v", b, err)
	}
	if out.Design != "alpha" || out.Workloads != 2 || out.WindowsEvaluated != 2*windows {
		t.Fatalf("response header = %+v", out)
	}
	if len(out.Results) != 2 {
		t.Fatalf("results = %d", len(out.Results))
	}

	// Reference: same tables through a fresh engine.
	ref := sweep.New(sweep.Options{Workers: 1})
	var req IntervalSweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	for i, wr := range out.Results {
		if wr.Name != fmt.Sprintf("iw%d", i) {
			t.Fatalf("workload %d name %q", i, wr.Name)
		}
		if len(wr.Windows) != windows || len(wr.ChipAVF) != windows {
			t.Fatalf("workload %d shape: %d windows, %d chip AVFs", i, len(wr.Windows), len(wr.ChipAVF))
		}
		if len(wr.SeqAVF) == 0 {
			t.Fatalf("workload %d: no per-node series", i)
		}
		for node, series := range wr.SeqAVF {
			if len(series) != windows {
				t.Fatalf("workload %d node %s series length %d", i, node, len(series))
			}
		}
		tab, err := pavfio.ParseIntervals(wr.Name, strings.NewReader(req.Workloads[i].Table))
		if err != nil {
			t.Fatal(err)
		}
		iw := sweep.NewIntervalWorkload(wr.Name, tab)
		rb, err := ref.SweepIntervals(results["alpha"], []sweep.IntervalWorkload{iw})
		if err != nil {
			t.Fatal(err)
		}
		want := rb.Workloads[0].Summary
		for w := 0; w < windows; w++ {
			if wr.ChipAVF[w] != want.ChipAVF[w] {
				t.Fatalf("workload %d window %d chip AVF %v != reference %v", i, w, wr.ChipAVF[w], want.ChipAVF[w])
			}
		}
		if wr.TimeWeightedMean != want.TimeWeightedMean || wr.PeakWindow != want.PeakWindow ||
			wr.PeakChipAVF != want.PeakChipAVF || wr.PeakToMean != want.PeakToMean {
			t.Fatalf("workload %d summary %+v != reference %+v", i, wr, want)
		}
		// Node series reference: each window's inputs re-evaluated
		// through the closed forms.
		for w, in := range iw.Inputs {
			r := *results["alpha"]
			r.AVF = make([]float64, len(r.AVF))
			if err := r.Reevaluate(in); err != nil {
				t.Fatal(err)
			}
			refNodes := r.SeqAVFByNode()
			if len(refNodes) != len(wr.SeqAVF) {
				t.Fatalf("workload %d: %d node series for %d nodes", i, len(wr.SeqAVF), len(refNodes))
			}
			for node, avf := range refNodes {
				if got := wr.SeqAVF[node][w]; got != avf {
					t.Fatalf("workload %d node %s window %d: %v != reference %v", i, node, w, got, avf)
				}
			}
		}
	}
}

// TestSweepIntervalsRejects covers the endpoint's validation surface.
func TestSweepIntervalsRejects(t *testing.T) {
	s, _, results := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res := results["alpha"]

	post := func(body any) (int, string) {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, rb := postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep/intervals", b)
		return resp.StatusCode, string(rb)
	}

	// Request name disagreeing with the table's workload directive.
	code, rb := post(IntervalSweepRequest{Design: "alpha", Workloads: []IntervalSweepWorkload{
		{Name: "other", Table: intervalTable(t, "iw0", res, 2, 1)},
	}})
	if code != http.StatusUnprocessableEntity || !strings.Contains(rb, "disagrees") {
		t.Fatalf("name conflict: %d %s", code, rb)
	}
	// Directive-only naming is allowed and surfaces the directive name.
	code, rb = post(IntervalSweepRequest{Design: "alpha", Workloads: []IntervalSweepWorkload{
		{Table: intervalTable(t, "fromdir", res, 2, 2)},
	}})
	if code != http.StatusOK || !strings.Contains(rb, `"fromdir"`) {
		t.Fatalf("directive naming: %d %s", code, rb)
	}
	// Malformed window geometry → 422 with a file:line position.
	code, rb = post(IntervalSweepRequest{Design: "alpha", Workloads: []IntervalSweepWorkload{
		{Name: "bad", Table: "# window 0 100 50\nR A.p 0.5\n"},
	}})
	if code != http.StatusUnprocessableEntity || !strings.Contains(rb, "bad:1") {
		t.Fatalf("bad geometry: %d %s", code, rb)
	}
	// Whole-run table (no window directives) is not an interval table.
	code, rb = post(IntervalSweepRequest{Design: "alpha", Workloads: []IntervalSweepWorkload{
		{Name: "flat", Table: pavfText(t, res, 3)},
	}})
	if code != http.StatusUnprocessableEntity || !strings.Contains(rb, "before first '# window'") {
		t.Fatalf("flat table: %d %s", code, rb)
	}
	// Unknown design.
	code, _ = post(IntervalSweepRequest{Design: "nope", Workloads: []IntervalSweepWorkload{
		{Name: "w", Table: intervalTable(t, "w", res, 2, 4)},
	}})
	if code != http.StatusNotFound {
		t.Fatalf("unknown design: %d", code)
	}
	// Empty workload list.
	code, _ = post(IntervalSweepRequest{Design: "alpha"})
	if code != http.StatusBadRequest {
		t.Fatalf("no workloads: %d", code)
	}
}

// TestSweepIntervalsLoad is the interval acceptance load test: 16
// concurrent clients pushing multi-window sweeps through a limiter
// smaller than the client count. Every request must eventually succeed
// (zero drops — clients honor the 429 backpressure), the window
// counters must land on /metrics, a traced request must round-trip its
// traceparent through /debug/requests, and the in-flight gauge must
// read zero after the drain.
func TestSweepIntervalsLoad(t *testing.T) {
	s, reg, results := newTestServer(t, Config{MaxConcurrent: 4, Sweep: sweep.Options{Workers: 2}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		clients   = 16
		perClient = 2
		workloads = 2
		windows   = 4
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				body := intervalBody(t, "alpha", results["alpha"], workloads, windows,
					uint64(c*10000+r*100), false)
				for attempt := 0; ; attempt++ {
					if attempt > 200 {
						errs <- fmt.Errorf("client %d: no success after %d attempts", c, attempt)
						return
					}
					resp, err := http.Post(ts.URL+"/v1/sweep/intervals", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						var out IntervalSweepResponse
						if err := json.Unmarshal(b, &out); err != nil {
							errs <- fmt.Errorf("client %d: bad response: %v", c, err)
							return
						}
						if out.WindowsEvaluated != workloads*windows {
							errs <- fmt.Errorf("client %d: %d windows evaluated, want %d",
								c, out.WindowsEvaluated, workloads*windows)
							return
						}
						break
					}
					if resp.StatusCode != http.StatusTooManyRequests {
						errs <- fmt.Errorf("client %d: %d %s", c, resp.StatusCode, b)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Window counters, on the registry and on the Prometheus exposition.
	const wantWindows = clients * perClient * workloads * windows
	if got := reg.Counter("sweep.windows_evaluated").Load(); got != wantWindows {
		t.Fatalf("sweep.windows_evaluated = %d, want %d", got, wantWindows)
	}
	if got := reg.Counter("server.interval_sweep_ok").Load(); got != clients*perClient {
		t.Fatalf("server.interval_sweep_ok = %d, want %d", got, clients*perClient)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	_, scalars := parsePromText(t, string(page))
	if got := scalars["sweep_windows_evaluated"]; got != wantWindows {
		t.Fatalf("exposition sweep_windows_evaluated = %v, want %d", got, wantWindows)
	}
	if got := scalars["sweep_interval_requests"]; got < clients*perClient {
		t.Fatalf("exposition sweep_interval_requests = %v, want >= %d", got, clients*perClient)
	}

	// Traceparent round-trip through the flight recorder.
	const parent = "00-aaaabbbbccccddddeeeeffff00001111-00f067aa0ba902b7-01"
	treq, err := http.NewRequest("POST", ts.URL+"/v1/sweep/intervals",
		bytes.NewReader(intervalBody(t, "beta", results["beta"], 1, windows, 777, false)))
	if err != nil {
		t.Fatal(err)
	}
	treq.Header.Set("Content-Type", "application/json")
	treq.Header.Set("traceparent", parent)
	tresp, err := http.DefaultClient.Do(treq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("traced request: %d", tresp.StatusCode)
	}
	const wantTrace = "aaaabbbbccccddddeeeeffff00001111"
	if etid, _, ok := obs.ParseTraceparent(tresp.Header.Get("traceparent")); !ok || etid.String() != wantTrace {
		t.Fatalf("response traceparent %q does not continue trace %s", tresp.Header.Get("traceparent"), wantTrace)
	}
	fresp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	var recs []obs.RequestRecord
	if err := json.Unmarshal(fb, &recs); err != nil {
		t.Fatalf("/debug/requests body %q: %v", fb, err)
	}
	found := false
	for _, rec := range recs {
		if rec.TraceID != wantTrace {
			continue
		}
		found = true
		if rec.Endpoint != "/v1/sweep/intervals" || rec.Design != "beta" || rec.Workloads != 1 {
			t.Fatalf("traced record = %+v", rec)
		}
		if rec.Status != http.StatusOK || rec.Outcome != "ok" {
			t.Fatalf("traced record status/outcome = %d %q", rec.Status, rec.Outcome)
		}
		if rec.IngestSeconds <= 0 || rec.EvalSeconds <= 0 {
			t.Fatalf("traced record stages: ingest=%v eval=%v", rec.IngestSeconds, rec.EvalSeconds)
		}
	}
	if !found {
		t.Fatalf("no flight record carries trace %s (got %d records)", wantTrace, len(recs))
	}

	// Drained: nothing left in flight.
	if got := len(s.sem); got != 0 {
		t.Fatalf("in-flight after drain = %d", got)
	}
}
