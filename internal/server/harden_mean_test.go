package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seqavf/internal/harden"
)

// TestHardenMeanTelemetry: /v1/harden with workloads runs on the engine's
// mean sink. Its sweep.eval span says so (output=mean), and
// sweep.workloads_reduced grows by the request's workload count.
func TestHardenMeanTelemetry(t *testing.T) {
	s, reg, results := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workloads = 6
	req := harden.Request{Design: "alpha", Budgets: []float64{3, 9}, TopTerms: 2}
	for i := 0; i < workloads; i++ {
		req.Workloads = append(req.Workloads, harden.Workload{
			Name: fmt.Sprintf("h%d", i), PAVF: pavfText(t, results["alpha"], uint64(60+i))})
	}
	before := reg.Counter("sweep.workloads_reduced").Load()
	resp, raw := postJSON(t, http.DefaultClient, ts.URL+"/v1/harden", hardenBody(t, req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("harden: %d %s", resp.StatusCode, raw)
	}
	var outputs []string
	for _, root := range reg.Snapshot().Spans {
		if root.Name != "server.request" {
			continue
		}
		if ev := findSpan(root, "sweep.eval"); ev != nil {
			out, _ := ev.Attrs["output"].(string)
			outputs = append(outputs, out)
		}
	}
	if fmt.Sprint(outputs) != "[mean]" {
		t.Fatalf("sweep.eval outputs %v, want [mean]", outputs)
	}
	if got := reg.Counter("sweep.workloads_reduced").Load() - before; got != workloads {
		t.Fatalf("sweep.workloads_reduced grew by %d, want %d", got, workloads)
	}
}

// TestHardenCostErrorsDeterministic: a cost table with two bad entries
// (two unknown nodes, or two non-positive costs) gets the same client
// error status and body on every attempt.
func TestHardenCostErrorsDeterministic(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"design":"alpha","budgets":[3],"costs":{"no/such":1,"also/missing":2}}`,
		`{"design":"alpha","budgets":[3],"costs":{"zz/x":-1,"aa/y":0}}`,
	} {
		var first string
		var status int
		for i := 0; i < 50; i++ {
			resp, err := http.Post(ts.URL+"/v1/harden", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode/100 != 4 {
				t.Fatalf("%s: status %d: %s", body, resp.StatusCode, raw)
			}
			if i == 0 {
				first, status = string(raw), resp.StatusCode
			} else if string(raw) != first || resp.StatusCode != status {
				t.Fatalf("%s: attempt %d answered %d %s, attempt 0 %d %s", body, i, resp.StatusCode, raw, status, first)
			}
		}
	}
}
