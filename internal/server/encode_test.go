package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestEncodeFailureAnswers500: a run step whose response cannot be
// encoded (a NaN, on the report writer's path and on encoding/json's)
// gets a 500 with the uniform error body, not an empty success; the
// failure is counted on server.encode_errors and lands in the flight
// record.
func TestEncodeFailureAnswers500(t *testing.T) {
	for _, tc := range []struct {
		name string
		resp any
	}{
		{"writer", &SweepResponse{Design: "d", ElapsedMS: math.NaN()}},
		{"encoding/json", map[string]float64{"avf": math.NaN()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, reg, _ := newTestServer(t, Config{})
			h := s.serve("/test", reg.Counter("server.test_requests"), http.StatusOK,
				func(r *http.Request, body io.Reader) (job, error) {
					return job{upload: true, run: func(context.Context, *Design) (any, *Design, error) {
						return tc.resp, nil, nil
					}}, nil
				})
			rr := httptest.NewRecorder()
			h(rr, httptest.NewRequest(http.MethodPost, "/test", strings.NewReader("")))

			const want = "encoding response: json: unsupported value: NaN"
			var body map[string]string
			if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil || rr.Code != http.StatusInternalServerError {
				t.Fatalf("status %d, body %q (%v); want 500 with an error body", rr.Code, rr.Body, err)
			}
			if body["error"] != want {
				t.Fatalf("error %q, want %q", body["error"], want)
			}
			if got := reg.Counter("server.encode_errors").Load(); got != 1 {
				t.Fatalf("server.encode_errors = %d, want 1", got)
			}
			recs := s.flight.Snapshot()
			if len(recs) != 1 || recs[0].Status != http.StatusInternalServerError || recs[0].Outcome != want {
				t.Fatalf("flight records %+v, want one 500 with outcome %q", recs, want)
			}
		})
	}
}

// TestNodesSweepRecordsEncode: a per-node sweep's flight record times
// the response encode as its own stage, the stages fit in the request's
// wall time, and the response announces its length.
func TestNodesSweepRecordsEncode(t *testing.T) {
	s, _, results := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := SweepRequest{Design: "alpha", Nodes: true}
	for i := 0; i < 4; i++ {
		req.Workloads = append(req.Workloads, SweepWorkload{
			Name: fmt.Sprintf("w%d", i), PAVF: pavfText(t, results["alpha"], uint64(80+i)),
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, out)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(out)) {
		t.Fatalf("Content-Length %q, body %d bytes", cl, len(out))
	}
	var rep SweepResponse
	if err := json.Unmarshal(out, &rep); err != nil || len(rep.Results) != 4 || len(rep.Results[0].SeqAVF) == 0 {
		t.Fatalf("response %d results (%v), want 4 with node maps", len(rep.Results), err)
	}
	recs := s.flight.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("flight records = %d, want 1", len(recs))
	}
	rec := recs[0]
	if rec.EncodeSeconds <= 0 {
		t.Fatalf("encode_seconds = %v, want > 0", rec.EncodeSeconds)
	}
	if sum := rec.IngestSeconds + rec.PlanSeconds + rec.EvalSeconds + rec.EncodeSeconds; sum > rec.DurationSeconds {
		t.Fatalf("stages sum to %v s, more than the request's %v s", sum, rec.DurationSeconds)
	}
}
