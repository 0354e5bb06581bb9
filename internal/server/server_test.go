package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/harden"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavfio"
	"seqavf/internal/stats"
	"seqavf/internal/sweep"
)

// solvedDesign generates a design and solves it for registration.
func solvedDesign(t testing.TB, seed uint64) *core.Result {
	t.Helper()
	d, err := graphtest.Generate(graphtest.Small(seed))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	a, err := core.NewAnalyzer(d.Graph, core.DefaultOptions())
	if err != nil {
		t.Fatalf("NewAnalyzer: %v", err)
	}
	res, err := a.Solve(neutralInputs(a))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

// pavfText renders a complete, seeded pAVF table for res's design.
func pavfText(t testing.TB, res *core.Result, seed uint64) string {
	t.Helper()
	rng := stats.New(seed)
	in := core.NewInputs()
	reads := res.Analyzer.ReadPortTerms()
	sort.Slice(reads, func(i, j int) bool {
		return reads[i].String() < reads[j].String()
	})
	for _, sp := range reads {
		in.ReadPorts[sp] = rng.Float64()
	}
	writes := res.Analyzer.WritePortTerms()
	sort.Slice(writes, func(i, j int) bool {
		return writes[i].String() < writes[j].String()
	})
	for _, sp := range writes {
		in.WritePorts[sp] = rng.Float64()
	}
	var sb strings.Builder
	if _, err := pavfio.Write(&sb, in); err != nil {
		t.Fatalf("pavfio.Write: %v", err)
	}
	return sb.String()
}

// sweepBody builds a POST /v1/sweep body with n seeded workloads.
func sweepBody(t testing.TB, designName string, res *core.Result, n int, seedBase uint64) []byte {
	t.Helper()
	req := SweepRequest{Design: designName}
	for i := 0; i < n; i++ {
		req.Workloads = append(req.Workloads, SweepWorkload{
			Name: fmt.Sprintf("w%d", i),
			PAVF: pavfText(t, res, seedBase+uint64(i)),
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// newTestServer registers two designs and returns the server plus its
// registry.
func newTestServer(t testing.TB, cfg Config) (*Server, *obs.Registry, map[string]*core.Result) {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	if cfg.Sweep.Workers == 0 {
		cfg.Sweep.Workers = 1
	}
	s := New(cfg)
	results := make(map[string]*core.Result)
	for i, name := range []string{"alpha", "beta"} {
		res := solvedDesign(t, uint64(31+i))
		if _, err := s.AddResult(name, res); err != nil {
			t.Fatalf("AddResult(%s): %v", name, err)
		}
		results[name] = res
	}
	return s, cfg.Obs, results
}

func postJSON(t testing.TB, client *http.Client, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

// TestServeSweepLoad is the acceptance load test: 64 concurrent clients
// sweeping 2 designs through a limiter smaller than the client count.
// Every request must eventually complete (clients honor the 429
// backpressure and retry), responses must be well-formed and match the
// request shape, and the repeated designs must be served from the plan
// cache.
func TestServeSweepLoad(t *testing.T) {
	s, reg, results := newTestServer(t, Config{MaxConcurrent: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 64
	const perClient = 3
	names := []string{"alpha", "beta"}
	bodies := make(map[string][]byte)
	for _, n := range names {
		bodies[n] = sweepBody(t, n, results[n], 4, 900)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	var retried, completed int64
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := names[c%len(names)]
			for i := 0; i < perClient; i++ {
				var resp *http.Response
				var body []byte
				for attempt := 0; ; attempt++ {
					r, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(bodies[name]))
					if err != nil {
						errs <- fmt.Errorf("client %d: %v", c, err)
						return
					}
					body, err = io.ReadAll(r.Body)
					r.Body.Close()
					if err != nil {
						errs <- fmt.Errorf("client %d: reading body: %v", c, err)
						return
					}
					if r.StatusCode != http.StatusTooManyRequests {
						resp = r
						break
					}
					if r.Header.Get("Retry-After") == "" {
						errs <- fmt.Errorf("client %d: 429 without Retry-After", c)
						return
					}
					if attempt > 200 {
						errs <- fmt.Errorf("client %d: still 429 after %d attempts", c, attempt)
						return
					}
					mu.Lock()
					retried++
					mu.Unlock()
					time.Sleep(2 * time.Millisecond)
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, body)
					return
				}
				var sr SweepResponse
				if err := json.Unmarshal(body, &sr); err != nil {
					errs <- fmt.Errorf("client %d: bad response JSON: %v", c, err)
					return
				}
				if sr.Design != name || len(sr.Results) != 4 {
					errs <- fmt.Errorf("client %d: response %q/%d results, want %q/4", c, sr.Design, len(sr.Results), name)
					return
				}
				for j, wr := range sr.Results {
					if wr.Name != fmt.Sprintf("w%d", j) {
						errs <- fmt.Errorf("client %d: result %d named %q", c, j, wr.Name)
						return
					}
					if wr.Summary.WeightedSeqAVF < 0 || wr.Summary.WeightedSeqAVF > 1 {
						errs <- fmt.Errorf("client %d: AVF %v out of [0,1]", c, wr.Summary.WeightedSeqAVF)
						return
					}
				}
				mu.Lock()
				completed++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if completed != clients*perClient {
		t.Fatalf("completed %d sweeps, want %d (zero dropped responses)", completed, clients*perClient)
	}
	// Both designs were registered (2 compile misses); every request after
	// that must hit the plan cache.
	hits := reg.Counter("sweep.plan_cache_hits").Load()
	misses := reg.Counter("sweep.plan_cache_misses").Load()
	if hits < clients*perClient {
		t.Errorf("plan cache hits = %d, want >= %d (repeat designs must reuse plans)", hits, clients*perClient)
	}
	if misses != 2 {
		t.Errorf("plan cache misses = %d, want exactly the 2 registrations", misses)
	}
	if got := reg.Gauge("server.in_flight").Load(); got != 0 {
		t.Errorf("in_flight gauge = %v after drain, want 0", got)
	}
	t.Logf("load: %d sweeps, %d retries after 429, %d cache hits", completed, retried, hits)
}

// postRoute is one POST route of the route × fault table: its URL, the
// endpoint and request counter its requests record, its success status,
// and a well-formed body for a design.
type postRoute struct {
	name     string
	endpoint string
	counter  string
	status   int
	// url is the route's path for a design (only edit names it there).
	url func(design string) string
	// body is a well-formed request naming design (swept with res's
	// tables).
	body func(t *testing.T, design string, res *core.Result) []byte
	// named routes resolve a registered design (404 when unknown);
	// engine routes run the sweep engine (503 on Abort).
	named, engine bool
}

func fixedURL(path string) func(string) string { return func(string) string { return path } }

// postRoutes is every POST route the request pipeline serves.
var postRoutes = []postRoute{
	{
		name: "upload", endpoint: "/v1/designs", counter: "server.upload_requests", status: http.StatusCreated,
		url: fixedURL("/v1/designs"),
		body: func(t *testing.T, _ string, _ *core.Result) []byte {
			nl, _ := genNetlist(t, 99)
			return []byte(nl)
		},
	},
	{
		name: "edit", endpoint: "/v1/designs/{name}/edit", counter: "server.edit_requests", status: http.StatusOK,
		url: func(design string) string { return "/v1/designs/" + design + "/edit" },
		body: func(t *testing.T, _ string, _ *core.Result) []byte {
			nl, _ := genNetlist(t, 99)
			return []byte(nl)
		},
		named: true,
	},
	{
		name: "sweep", endpoint: "/v1/sweep", counter: "server.sweep_requests", status: http.StatusOK,
		url: fixedURL("/v1/sweep"),
		body: func(t *testing.T, design string, res *core.Result) []byte {
			return sweepBody(t, design, res, 2, 60)
		},
		named: true, engine: true,
	},
	{
		name: "intervals", endpoint: "/v1/sweep/intervals", counter: "sweep.interval_requests", status: http.StatusOK,
		url: fixedURL("/v1/sweep/intervals"),
		body: func(t *testing.T, design string, res *core.Result) []byte {
			return intervalBody(t, design, res, 1, 3, 70, false)
		},
		named: true, engine: true,
	},
	{
		name: "harden", endpoint: "/v1/harden", counter: "harden.requests", status: http.StatusOK,
		url: fixedURL("/v1/harden"),
		body: func(t *testing.T, design string, res *core.Result) []byte {
			return hardenBody(t, harden.Request{
				Design:    design,
				Workloads: []harden.Workload{{Name: "w0", PAVF: pavfText(t, res, 80)}, {Name: "w1", PAVF: pavfText(t, res, 81)}},
				Budgets:   []float64{3},
			})
		},
		named: true, engine: true,
	},
}

// routeFault is one injected fault and the response every applicable
// route must give it.
type routeFault struct {
	name   string
	status int
	// applies reports whether the fault exists for a route.
	applies func(postRoute) bool
	cfg     Config
	// inject sends the faulted request (after arming any server-side
	// fault) and returns the response.
	inject func(t *testing.T, s *Server, ts *httptest.Server, rt postRoute, res *core.Result) (*http.Response, []byte)
}

func allRoutes(postRoute) bool { return true }

// ingestFaults fail a request while its body is read and resolved.
var ingestFaults = []routeFault{
	{
		name: "oversize", status: http.StatusRequestEntityTooLarge, applies: allRoutes,
		cfg: Config{MaxBodyBytes: 2048},
		inject: func(t *testing.T, _ *Server, ts *httptest.Server, rt postRoute, res *core.Result) (*http.Response, []byte) {
			// A well-formed request padded far past the 2KB cap.
			body := append(bytes.Repeat([]byte(" "), 8192), rt.body(t, "alpha", res)...)
			return postJSON(t, http.DefaultClient, ts.URL+rt.url("alpha"), body)
		},
	},
	{
		name: "malformed", status: http.StatusBadRequest, applies: allRoutes,
		inject: func(t *testing.T, _ *Server, ts *httptest.Server, rt postRoute, _ *core.Result) (*http.Response, []byte) {
			// A chunked body whose first chunk header is not hex: the
			// body stream itself is unreadable, whatever the route.
			return postRaw(t, ts, rt.url("alpha"), "Transfer-Encoding: chunked\r\n\r\nzz\r\n")
		},
	},
	{
		name: "truncated", status: http.StatusBadRequest, applies: allRoutes,
		inject: func(t *testing.T, _ *Server, ts *httptest.Server, rt postRoute, res *core.Result) (*http.Response, []byte) {
			// A well-formed body announced at its full length but cut
			// at half: the stream ends early (io.ErrUnexpectedEOF).
			body := rt.body(t, "alpha", res)
			return postRaw(t, ts, rt.url("alpha"),
				fmt.Sprintf("Content-Length: %d\r\n\r\n%s", len(body), body[:len(body)/2]))
		},
	},
	{
		name: "unknown design", status: http.StatusNotFound, applies: func(rt postRoute) bool { return rt.named },
		inject: func(t *testing.T, _ *Server, ts *httptest.Server, rt postRoute, res *core.Result) (*http.Response, []byte) {
			return postJSON(t, http.DefaultClient, ts.URL+rt.url("nope"), rt.body(t, "nope", res))
		},
	},
}

// slotFaults strike a decoded request at the concurrency slot or while
// it runs.
var slotFaults = []routeFault{
	{
		name: "saturated", status: http.StatusTooManyRequests, applies: allRoutes,
		cfg: Config{MaxConcurrent: 2},
		inject: func(t *testing.T, s *Server, ts *httptest.Server, rt postRoute, res *core.Result) (*http.Response, []byte) {
			// Occupy both slots out-of-band.
			s.sem <- struct{}{}
			s.sem <- struct{}{}
			defer func() { <-s.sem; <-s.sem }()
			return postJSON(t, http.DefaultClient, ts.URL+rt.url("alpha"), rt.body(t, "alpha", res))
		},
	},
	{
		name: "abort", status: http.StatusServiceUnavailable, applies: func(rt postRoute) bool { return rt.engine },
		inject: func(t *testing.T, s *Server, ts *httptest.Server, rt postRoute, res *core.Result) (*http.Response, []byte) {
			s.Abort()
			return postJSON(t, http.DefaultClient, ts.URL+rt.url("alpha"), rt.body(t, "alpha", res))
		},
	},
}

// postRaw sends a POST with hand-written framing headers and body bytes
// over its own connection, for bodies net/http's client cannot produce,
// then half-closes the connection so the server reads EOF right where
// the bytes end.
func postRaw(t *testing.T, ts *httptest.Server, path, headersAndBody string) (*http.Response, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n%s", path, headersAndBody); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response body: %v", err)
	}
	return resp, b
}

// runRouteFaults injects every applicable fault into every POST route on
// a fresh server and checks the whole report: the status, the
// {"error": ...} body, the counters, and the flight record.
func runRouteFaults(t *testing.T, faults []routeFault) {
	for _, rt := range postRoutes {
		for _, f := range faults {
			if !f.applies(rt) {
				continue
			}
			t.Run(rt.name+"/"+f.name, func(t *testing.T) {
				s, reg, results := newTestServer(t, f.cfg)
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()
				resp, b := f.inject(t, s, ts, rt, results["alpha"])
				if resp.StatusCode != f.status {
					t.Fatalf("status %d, want %d: %s", resp.StatusCode, f.status, b)
				}
				var e map[string]string
				if err := json.Unmarshal(b, &e); err != nil || e["error"] == "" || len(e) != 1 {
					t.Fatalf("body is not {\"error\": ...}: %s", b)
				}
				if got := reg.Counter(rt.counter).Load(); got != 1 {
					t.Errorf("%s = %d, want 1", rt.counter, got)
				}
				outcome, errs, busy := e["error"], int64(1), int64(0)
				if f.status == http.StatusTooManyRequests {
					outcome, errs, busy = "busy", 0, 1
					if ra := resp.Header.Get("Retry-After"); ra != "1" {
						t.Errorf("Retry-After = %q, want \"1\"", ra)
					}
				}
				if got := reg.Counter("server.errors").Load(); got != errs {
					t.Errorf("server.errors = %d, want %d", got, errs)
				}
				if got := reg.Counter("server.rejected_busy").Load(); got != busy {
					t.Errorf("server.rejected_busy = %d, want %d", got, busy)
				}
				if f.status == http.StatusServiceUnavailable {
					if got := reg.Counter("sweep.cancelled").Load(); got != 1 {
						t.Errorf("sweep.cancelled = %d, want 1", got)
					}
				}
				fresp, err := http.Get(ts.URL + "/debug/requests")
				if err != nil {
					t.Fatal(err)
				}
				defer fresp.Body.Close()
				var recs []obs.RequestRecord
				if err := json.NewDecoder(fresp.Body).Decode(&recs); err != nil {
					t.Fatalf("/debug/requests: %v", err)
				}
				if len(recs) != 1 {
					t.Fatalf("flight records = %d, want 1", len(recs))
				}
				if r := recs[0]; r.Endpoint != rt.endpoint || r.Status != f.status || r.Outcome != outcome {
					t.Fatalf("record endpoint/status/outcome = %q %d %q, want %q %d %q",
						r.Endpoint, r.Status, r.Outcome, rt.endpoint, f.status, outcome)
				}
				if f.status == http.StatusTooManyRequests {
					// The slots are free again: the same request succeeds.
					resp, b := postJSON(t, http.DefaultClient, ts.URL+rt.url("alpha"), rt.body(t, "alpha", results["alpha"]))
					if resp.StatusCode != rt.status {
						t.Fatalf("request after release returned %d: %s", resp.StatusCode, b)
					}
				}
			})
		}
	}
}

// TestSaturationReturns429: with every slot occupied each POST route
// must fail fast with 429 + Retry-After, and recover once a slot frees;
// Abort fails every route that runs the sweep engine with 503.
func TestSaturationReturns429(t *testing.T) {
	runRouteFaults(t, slotFaults)
}

// TestShutdownDrains: http.Server.Shutdown must let an in-flight sweep
// finish and deliver its 200 before the listener dies — the SIGTERM
// drain path of seqavfd.
func TestShutdownDrains(t *testing.T) {
	s, _, results := newTestServer(t, Config{MaxConcurrent: 2})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.onSlotAcquired = func() {
		once.Do(func() {
			close(started)
			<-release
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)

	url := "http://" + ln.Addr().String()
	body := sweepBody(t, "alpha", results["alpha"], 2, 70)
	type result struct {
		status int
		body   []byte
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode, body: b}
	}()
	<-started

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- hs.Shutdown(sctx) }()
	// The sweep is pinned in-flight; Shutdown must wait for it.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a sweep was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-resc
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("drained request returned %d: %s", r.status, r.body)
	}
}

// TestAbortCancelsInFlight: Abort (the drain-deadline overrun path) must
// cancel a running sweep, failing it with 503 instead of leaving workers
// running.
func TestAbortCancelsInFlight(t *testing.T) {
	s, reg, results := newTestServer(t, Config{MaxConcurrent: 2})
	started := make(chan struct{})
	var once sync.Once
	s.onSlotAcquired = func() {
		once.Do(func() {
			close(started)
			// Give requestCtx's watcher a moment to arm, then abort. The
			// sweep itself starts after this hook returns, already
			// cancelled.
			s.Abort()
		})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, b := postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep",
		sweepBody(t, "beta", results["beta"], 8, 90))
	<-started
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("aborted sweep returned %d: %s", resp.StatusCode, b)
	}
	if got := reg.Counter("sweep.cancelled").Load(); got != 1 {
		t.Fatalf("sweep.cancelled = %d, want 1", got)
	}
}

// TestRequestTimeout: a sweep outliving RequestTimeout must come back as
// 503, not hang. A nanosecond deadline is expired before the engine's
// first chunk, making the timeout deterministic.
func TestRequestTimeout(t *testing.T) {
	s, _, results := newTestServer(t, Config{MaxConcurrent: 2, RequestTimeout: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, b := postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep",
		sweepBody(t, "alpha", results["alpha"], 4, 110))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out sweep returned %d: %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "timed out") && !strings.Contains(string(b), "cancelled") {
		t.Fatalf("timeout error body: %s", b)
	}
}

// TestBodyLimitAndBadInputs: on every POST route, oversized bodies are
// 413, unreadable or truncated bodies 400 and unknown designs 404; on
// /v1/sweep, malformed pAVF tables (the hardened parser), unknown
// designs, and empty requests are client errors with JSON bodies.
func TestBodyLimitAndBadInputs(t *testing.T) {
	runRouteFaults(t, ingestFaults)

	s, _, results := newTestServer(t, Config{MaxBodyBytes: 2048})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := sweepBody(t, "alpha", results["alpha"], 64, 130) // far beyond 2KB
	resp, b := postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body returned %d: %s", resp.StatusCode, b)
	}

	cases := []struct {
		name   string
		body   string
		status int
		want   string
	}{
		{"bad json", "{", http.StatusBadRequest, "decoding"},
		{"unknown design", `{"design":"nope","workloads":[{"name":"w","pavf":"R IQ.rd 0.5\n"}]}`,
			http.StatusNotFound, "unknown design"},
		{"no workloads", `{"design":"alpha","workloads":[]}`, http.StatusBadRequest, "no workloads"},
		{"NaN pavf", `{"design":"alpha","workloads":[{"name":"w","pavf":"R IQ.rd NaN\n"}]}`,
			http.StatusUnprocessableEntity, "out of [0,1]"},
		{"foreign port", `{"design":"alpha","workloads":[{"name":"w","pavf":"R NoSuch.rd 0.5\n"}]}`,
			http.StatusUnprocessableEntity, "does not have"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, b := postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep", []byte(tc.body))
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, b)
			}
			var e map[string]string
			if err := json.Unmarshal(b, &e); err != nil {
				t.Fatalf("error body not JSON: %s", b)
			}
			if !strings.Contains(e["error"], tc.want) {
				t.Fatalf("error %q does not mention %q", e["error"], tc.want)
			}
		})
	}
}

// TestDesignUploadAndSweep: POST /v1/designs with a textual netlist must
// solve, register, and serve sweeps for the new design.
func TestDesignUploadAndSweep(t *testing.T) {
	s, reg, _ := newTestServer(t, Config{MaxBodyBytes: 64 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg := design.DefaultConfig(99)
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
	var info DesignInfo
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatalf("upload response: %v", err)
	}
	if info.Name != gen.Design.Name || info.Vertices == 0 {
		t.Fatalf("upload registered %+v", info)
	}
	// Re-uploading the same name is a conflict, not a silent replace.
	resp, b = postJSON(t, http.DefaultClient, ts.URL+"/v1/designs", nl.Bytes())
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("duplicate upload returned %d: %s", resp.StatusCode, b)
	}

	// Sweep the uploaded design end to end.
	d := s.Design(info.Name)
	if d == nil {
		t.Fatal("uploaded design not registered")
	}
	body := sweepBody(t, info.Name, d.Result, 3, 150)
	resp, b = postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep of uploaded design returned %d: %s", resp.StatusCode, b)
	}
	var sr SweepResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 3 || sr.Plan.UniqueSets == 0 {
		t.Fatalf("sweep response %+v", sr)
	}
	if got := reg.Gauge("server.designs").Load(); got != 3 {
		t.Fatalf("designs gauge = %v, want 3", got)
	}
}

// TestHealthzAndMetrics: the observability endpoints must serve JSON that
// reflects request activity, and /debug/pprof must answer.
func TestHealthzAndMetrics(t *testing.T) {
	s, _, results := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, b := postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep",
		sweepBody(t, "alpha", results["alpha"], 1, 170)); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, b)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	code, b := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	var hz map[string]any
	if err := json.Unmarshal(b, &hz); err != nil || hz["status"] != "ok" || hz["designs"].(float64) != 2 {
		t.Fatalf("/healthz body %s (err %v)", b, err)
	}

	code, b = get("/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json: %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("/metrics.json not a snapshot: %v", err)
	}
	if snap.Counters["server.sweep_ok"] != 1 || snap.Counters["sweep.plan_cache_hits"] != 1 {
		t.Fatalf("/metrics.json counters %v", snap.Counters)
	}
	if snap.Histograms["server.request_seconds"].Count != 1 {
		t.Fatalf("/metrics.json histograms %v", snap.Histograms)
	}

	code, b = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.Contains(string(b), "server_request_seconds_bucket") ||
		!strings.Contains(string(b), "# TYPE server_sweep_ok counter") {
		t.Fatalf("/metrics not Prometheus text:\n%s", b)
	}

	code, b = get("/v1/designs")
	if code != http.StatusOK {
		t.Fatalf("/v1/designs: %d", code)
	}
	var infos []DesignInfo
	if err := json.Unmarshal(b, &infos); err != nil || len(infos) != 2 || infos[0].Name != "alpha" {
		t.Fatalf("/v1/designs body %s (err %v)", b, err)
	}

	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
}

// TestSweepMatchesEngine: a served sweep must be bit-identical to driving
// the engine directly — HTTP adds transport, not arithmetic.
func TestSweepMatchesEngine(t *testing.T) {
	s, _, results := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res := results["beta"]
	table := pavfText(t, res, 777)
	reqBody, _ := json.Marshal(SweepRequest{
		Design:    "beta",
		Workloads: []SweepWorkload{{Name: "w", PAVF: table}},
		Nodes:     true,
	})
	resp, b := postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep", reqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, b)
	}
	var sr SweepResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}

	in, err := pavfio.Parse("ref", strings.NewReader(table))
	if err != nil {
		t.Fatal(err)
	}
	eng := sweep.New(sweep.Options{Workers: 1})
	batch, err := eng.Sweep(res, []sweep.Workload{{Name: "w", Inputs: in}})
	if err != nil {
		t.Fatal(err)
	}
	want := batch.Results[0].SeqAVFByNode()
	got := sr.Results[0].SeqAVF
	if len(got) != len(want) {
		t.Fatalf("served %d nodes, engine %d", len(got), len(want))
	}
	for node, v := range want {
		if got[node] != v {
			t.Fatalf("node %s: served %v, engine %v", node, got[node], v)
		}
	}
}
