package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"seqavf/internal/obs"
)

// TestTraceparentFlightRecorder is the tracing acceptance test: a sweep
// sent with a W3C traceparent must land in /debug/requests carrying the
// same trace ID, with non-zero per-stage durations, and the response
// must echo a traceparent continuing the incoming trace.
func TestTraceparentFlightRecorder(t *testing.T) {
	s, _, results := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, err := http.NewRequest("POST", ts.URL+"/v1/sweep",
		bytes.NewReader(sweepBody(t, "alpha", results["alpha"], 3, 500)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	const wantTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	echo := resp.Header.Get("traceparent")
	etid, _, ok := obs.ParseTraceparent(echo)
	if !ok || etid.String() != wantTrace {
		t.Fatalf("response traceparent %q does not continue trace %s", echo, wantTrace)
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
	if len(recs) != 1 {
		t.Fatalf("flight records = %d, want 1", len(recs))
	}
	rec := recs[0]
	if rec.TraceID != wantTrace {
		t.Fatalf("record trace %q, want %q", rec.TraceID, wantTrace)
	}
	if rec.Endpoint != "/v1/sweep" || rec.Design != "alpha" || rec.Workloads != 3 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Status != http.StatusOK || rec.Outcome != "ok" {
		t.Fatalf("record status/outcome = %d %q", rec.Status, rec.Outcome)
	}
	if rec.IngestSeconds <= 0 || rec.PlanSeconds <= 0 || rec.EvalSeconds <= 0 {
		t.Fatalf("per-stage durations not all positive: ingest=%v plan=%v eval=%v",
			rec.IngestSeconds, rec.PlanSeconds, rec.EvalSeconds)
	}
	if rec.DurationSeconds < rec.EvalSeconds {
		t.Fatalf("total %v < eval stage %v", rec.DurationSeconds, rec.EvalSeconds)
	}
	if rec.PlanSource != "cache" {
		t.Fatalf("plan source %q, want cache (design pre-registered)", rec.PlanSource)
	}
	if rec.Fingerprint == "" || len(rec.Fingerprint) != 16 {
		t.Fatalf("fingerprint %q", rec.Fingerprint)
	}
}

// TestUntracedRequestGetsFreshTrace: without a traceparent the server
// must mint a trace and still record the request.
func TestUntracedRequestGetsFreshTrace(t *testing.T) {
	s, _, results := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep",
		sweepBody(t, "beta", results["beta"], 1, 71))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d", resp.StatusCode)
	}
	if _, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent")); !ok {
		t.Fatalf("response traceparent %q invalid", resp.Header.Get("traceparent"))
	}
	recs := s.flight.Snapshot()
	if len(recs) != 1 || recs[0].TraceID == "" {
		t.Fatalf("flight records = %+v", recs)
	}
}

// promHistogram is one parsed exposition family.
type promHistogram struct {
	bounds []string
	cum    []uint64
	sum    float64
	count  uint64
}

// parsePromText parses exposition text into histogram families and
// scalar samples, failing the test on any malformed line.
func parsePromText(t *testing.T, text string) (map[string]*promHistogram, map[string]float64) {
	t.Helper()
	hists := make(map[string]*promHistogram)
	scalars := make(map[string]float64)
	get := func(fam string) *promHistogram {
		h := hists[fam]
		if h == nil {
			h = &promHistogram{}
			hists[fam] = h
		}
		return h
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		switch {
		case strings.Contains(name, "_bucket{le="):
			fam := name[:strings.Index(name, "_bucket{")]
			le := name[strings.Index(name, `le="`)+4 : len(name)-2]
			c, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", line, err)
			}
			h := get(fam)
			h.bounds = append(h.bounds, le)
			h.cum = append(h.cum, c)
		case strings.HasSuffix(name, "_sum") && hists[strings.TrimSuffix(name, "_sum")] != nil:
			get(strings.TrimSuffix(name, "_sum")).sum, _ = strconv.ParseFloat(val, 64)
		case strings.HasSuffix(name, "_count") && hists[strings.TrimSuffix(name, "_count")] != nil:
			get(strings.TrimSuffix(name, "_count")).count, _ = strconv.ParseUint(val, 10, 64)
		default:
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("scalar value %q: %v", line, err)
			}
			scalars[name] = f
		}
	}
	return hists, scalars
}

// TestPromExpositionUnderLoad scrapes /metrics while 64 concurrent
// clients sweep, and checks every scraped page is a valid exposition:
// each histogram family has monotone cumulative buckets ending in
// le="+Inf" equal to _count, plus _sum/_count lines. Run under -race
// this also proves scrapes do not race request recording.
func TestPromExpositionUnderLoad(t *testing.T) {
	const flightCap = 128
	s, _, results := newTestServer(t, Config{MaxConcurrent: 8, FlightRecorderSize: flightCap})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 64
	body := sweepBody(t, "alpha", results["alpha"], 2, 300)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
				if resp.StatusCode != http.StatusTooManyRequests {
					errs <- fmt.Errorf("sweep: %d", resp.StatusCode)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	// Scrape concurrently with the load.
	scrapes := make(chan string, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				errs <- err
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if got := resp.Header.Get("Content-Type"); got != obs.PromContentType {
				errs <- fmt.Errorf("scrape Content-Type %q", got)
				return
			}
			scrapes <- string(b)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	close(scrapes)
	for err := range errs {
		t.Fatal(err)
	}

	pages := 0
	for page := range scrapes {
		pages++
		hists, _ := parsePromText(t, page)
		for fam, h := range hists {
			if len(h.bounds) == 0 || h.bounds[len(h.bounds)-1] != "+Inf" {
				t.Fatalf("%s: bucket series %v does not end in +Inf", fam, h.bounds)
			}
			for i := 1; i < len(h.cum); i++ {
				if h.cum[i] < h.cum[i-1] {
					t.Fatalf("%s: cumulative buckets not monotone: %v", fam, h.cum)
				}
			}
			if h.cum[len(h.cum)-1] != h.count {
				t.Fatalf("%s: le=+Inf %d != _count %d", fam, h.cum[len(h.cum)-1], h.count)
			}
		}
	}
	if pages != 8 {
		t.Fatalf("scraped %d pages, want 8", pages)
	}

	// The final page must carry the request histogram with all 64 sweeps
	// plus every 429 the clients retried past: the pipeline observes each
	// request it answers, rejections included. The rejection count comes
	// from the same page.
	resp, _ := http.Get(ts.URL + "/metrics")
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	hists, scalars := parsePromText(t, string(b))
	answered := clients + int(scalars["server_rejected_busy"])
	h := hists["server_request_seconds"]
	if h == nil || h.count != uint64(answered) {
		t.Fatalf("server_request_seconds count = %+v, want %d sweeps + %v rejections",
			h, clients, scalars["server_rejected_busy"])
	}
	if h.sum <= 0 {
		t.Fatalf("server_request_seconds sum = %v", h.sum)
	}
	if scalars["server_sweep_ok"] != clients {
		t.Fatalf("server_sweep_ok = %v, want %d", scalars["server_sweep_ok"], clients)
	}
	if got, want := s.flight.Len(), min(answered, flightCap); got != want {
		t.Fatalf("flight recorder retained %d, want %d", got, want)
	}
}

// TestSlowRequestLog: a request over the SlowRequest threshold must be
// promoted to the slow log as one JSON line carrying the trace ID and
// the full span tree.
func TestSlowRequestLog(t *testing.T) {
	var slow syncBuffer
	s, reg, results := newTestServer(t, Config{
		SlowRequest: time.Nanosecond, // everything is slow
		SlowLog:     &slow,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, b := postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep",
		sweepBody(t, "alpha", results["alpha"], 1, 42))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, b)
	}
	var line struct {
		SlowRequest obs.RequestRecord `json:"slow_request"`
		Spans       obs.SpanSnapshot  `json:"spans"`
	}
	if err := json.Unmarshal(slow.Bytes(), &line); err != nil {
		t.Fatalf("slow log %q: %v", slow.Bytes(), err)
	}
	if line.SlowRequest.TraceID == "" || line.Spans.TraceID != line.SlowRequest.TraceID {
		t.Fatalf("slow log trace IDs: record %q, spans %q", line.SlowRequest.TraceID, line.Spans.TraceID)
	}
	if line.Spans.Name != "server.request" || len(line.Spans.Children) == 0 {
		t.Fatalf("slow log span tree = %+v", line.Spans)
	}
	if reg.Counter("server.slow_requests").Load() != 1 {
		t.Fatalf("server.slow_requests = %d", reg.Counter("server.slow_requests").Load())
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for test log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}
