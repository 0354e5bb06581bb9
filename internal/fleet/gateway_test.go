package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seqavf/internal/obs"
)

// stubReplica is a minimal seqavfd stand-in: it records every proxied
// request it served, answers each with its own identity, and can be told
// to fail /v1/sweep with a given status.
type stubReplica struct {
	ts       *httptest.Server
	id       string
	hits     atomic.Int64
	failWith atomic.Int64 // 0 = healthy, else HTTP status to return
	badPage  atomic.Bool  // serve /metrics as an unparseable exposition
	lastTP   atomic.Value // last traceparent header seen (string)

	mu   sync.Mutex
	seen []seenRequest
}

// seenRequest is what a stub replica observed of one proxied request.
type seenRequest struct {
	Method, URI, ContentType, Traceparent, Body string
}

// record notes a proxied request and answers it with the stub's
// identity under status.
func (sr *stubReplica) record(w http.ResponseWriter, r *http.Request, status int) {
	body, _ := io.ReadAll(r.Body)
	sr.mu.Lock()
	sr.seen = append(sr.seen, seenRequest{
		Method:      r.Method,
		URI:         r.RequestURI,
		ContentType: r.Header.Get("Content-Type"),
		Traceparent: r.Header.Get("traceparent"),
		Body:        string(body),
	})
	sr.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"served_by":%q,"echo_len":%d}`, sr.id, len(body))
}

// requests returns the proxied requests the stub has served so far.
func (sr *stubReplica) requests() []seenRequest {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return append([]seenRequest(nil), sr.seen...)
}

func newStubReplica(t *testing.T, id string) *stubReplica {
	t.Helper()
	sr := &stubReplica{id: id}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","designs":1}`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if sr.badPage.Load() {
			fmt.Fprintf(w, "# TYPE server_sweep_ok bogus\n")
			return
		}
		fmt.Fprintf(w, "# TYPE server_sweep_ok counter\nserver_sweep_ok %d\n", sr.hits.Load())
	})
	mux.HandleFunc("GET /v1/designs", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `[{"name":%q,"vertices":1,"seq_bits":1}]`, "design-of-"+sr.id)
	})
	mux.HandleFunc("/v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		if code := sr.failWith.Load(); code != 0 {
			w.WriteHeader(int(code))
			fmt.Fprintf(w, `{"error":"stub failure"}`)
			return
		}
		sr.lastTP.Store(r.Header.Get("traceparent"))
		sr.hits.Add(1)
		sr.record(w, r, http.StatusOK)
	})
	for pattern, status := range map[string]int{
		"POST /v1/sweep/intervals":        http.StatusOK,
		"POST /v1/harden":                 http.StatusOK,
		"POST /v1/designs":                http.StatusCreated,
		"POST /v1/designs/{name}/edit":    http.StatusOK,
		"GET /v1/artifacts/{fingerprint}": http.StatusOK,
	} {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) { sr.record(w, r, status) })
	}
	sr.ts = httptest.NewServer(mux)
	t.Cleanup(sr.ts.Close)
	return sr
}

func newTestFleet(t *testing.T, n int) ([]*stubReplica, *Gateway) {
	t.Helper()
	reps := make([]*stubReplica, n)
	urls := make([]string, n)
	for i := range reps {
		reps[i] = newStubReplica(t, fmt.Sprintf("r%d", i))
		urls[i] = reps[i].ts.URL
	}
	gw, err := New(Config{
		Replicas: urls,
		Obs:      obs.New(),
		Backoff:  time.Millisecond,
		Cooldown: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reps, gw
}

func postSweep(t *testing.T, h http.Handler, design string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	body := fmt.Sprintf(`{"design":%q,"workloads":[]}`, design)
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var reply struct {
		ServedBy string `json:"served_by"`
	}
	_ = json.Unmarshal(rr.Body.Bytes(), &reply)
	return rr, reply.ServedBy
}

// Routing is deterministic and agrees with the rendezvous ranking: the
// same design always lands on the same replica, and that replica is the
// key's rendezvous owner.
func TestGatewayRoutesByOwner(t *testing.T) {
	reps, gw := newTestFleet(t, 3)
	h := gw.Handler()
	byURL := make(map[string]*stubReplica)
	for _, r := range reps {
		byURL[r.ts.URL] = r
	}
	for i := 0; i < 8; i++ {
		design := fmt.Sprintf("design-%d", i)
		owner := byURL[Owner(design, gw.Replicas())]
		for rep := 0; rep < 2; rep++ {
			rr, servedBy := postSweep(t, h, design)
			if rr.Code != http.StatusOK {
				t.Fatalf("design %q: status %d: %s", design, rr.Code, rr.Body.String())
			}
			if servedBy != owner.id {
				t.Fatalf("design %q served by %s, rendezvous owner is %s", design, servedBy, owner.id)
			}
		}
	}
}

// A dead owner fails over to the next hash choice; once the owner is
// quarantined, subsequent requests skip it without paying the error.
func TestGatewayFailover(t *testing.T) {
	reps, gw := newTestFleet(t, 3)
	h := gw.Handler()
	byURL := make(map[string]*stubReplica)
	for _, r := range reps {
		byURL[r.ts.URL] = r
	}
	// Find a design and kill its owner.
	design := "failover-design"
	ranked := Rank(design, gw.Replicas())
	owner, second := byURL[ranked[0]], byURL[ranked[1]]
	owner.ts.Close()

	rr, servedBy := postSweep(t, h, design)
	if rr.Code != http.StatusOK {
		t.Fatalf("failover request: status %d: %s", rr.Code, rr.Body.String())
	}
	if servedBy != second.id {
		t.Fatalf("failover served by %s, want second choice %s", servedBy, second.id)
	}
	if got := gw.reg.Counter("gateway.retries").Load(); got == 0 {
		t.Fatal("failover did not count a retry")
	}
	if got := gw.reg.Counter("gateway.replica_errors").Load(); got != 1 {
		t.Fatalf("gateway.replica_errors = %d, want 1 (the dead owner's transport error)", got)
	}
	if got := gw.reg.Gauge("gateway.replica_unhealthy").Load(); got != 1 {
		t.Fatalf("gateway.replica_unhealthy = %v, want 1", got)
	}
	// The dead owner is quarantined: the next request must go straight to
	// the second choice (no retry counted).
	before := gw.reg.Counter("gateway.retries").Load()
	if _, servedBy := postSweep(t, h, design); servedBy != second.id {
		t.Fatalf("post-quarantine request served by %s, want %s", servedBy, second.id)
	}
	if got := gw.reg.Counter("gateway.retries").Load(); got != before {
		t.Fatal("quarantined replica was retried again")
	}
}

// Replica 5xx unavailability fails over; 429 backpressure and 4xx pass
// through to the client untouched.
func TestGatewayStatusHandling(t *testing.T) {
	reps, gw := newTestFleet(t, 2)
	h := gw.Handler()
	byURL := make(map[string]*stubReplica)
	for _, r := range reps {
		byURL[r.ts.URL] = r
	}
	design := "status-design"
	ranked := Rank(design, gw.Replicas())
	owner, second := byURL[ranked[0]], byURL[ranked[1]]

	owner.failWith.Store(http.StatusServiceUnavailable)
	rr, servedBy := postSweep(t, h, design)
	if rr.Code != http.StatusOK || servedBy != second.id {
		t.Fatalf("503 fail-over: status %d served by %q, want 200 from %s", rr.Code, servedBy, second.id)
	}
	if got := gw.reg.Counter("gateway.replica_errors").Load(); got != 1 {
		t.Fatalf("gateway.replica_errors = %d after a 503 fail-over, want 1", got)
	}

	// 429 must pass through, not fail over: wait out the quarantine the
	// 503 earned, then make the owner busy.
	time.Sleep(60 * time.Millisecond)
	owner.failWith.Store(http.StatusTooManyRequests)
	rr, _ = postSweep(t, h, design)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("429 from owner: gateway returned %d, want passthrough 429", rr.Code)
	}

	time.Sleep(60 * time.Millisecond)
	owner.failWith.Store(http.StatusNotFound)
	rr, _ = postSweep(t, h, design)
	if rr.Code != http.StatusNotFound {
		t.Fatalf("404 from owner: gateway returned %d, want passthrough 404", rr.Code)
	}
}

// The gateway's own traceparent continues into the replica.
func TestGatewayTracePropagation(t *testing.T) {
	reps, gw := newTestFleet(t, 2)
	h := gw.Handler()
	byURL := make(map[string]*stubReplica)
	for _, r := range reps {
		byURL[r.ts.URL] = r
	}
	design := "traced-design"
	owner := byURL[Owner(design, gw.Replicas())]

	body := fmt.Sprintf(`{"design":%q,"workloads":[]}`, design)
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
	req.Header.Set("traceparent", "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	upstream, _ := owner.lastTP.Load().(string)
	if !strings.Contains(upstream, "0123456789abcdef0123456789abcdef") {
		t.Fatalf("replica saw traceparent %q, want the client's trace ID carried through", upstream)
	}
	if echo := rr.Header().Get("traceparent"); !strings.Contains(echo, "0123456789abcdef0123456789abcdef") {
		t.Fatalf("gateway echoed traceparent %q, want client's trace ID", echo)
	}
}

// /metrics merges every replica's exposition plus the gateway's own.
func TestGatewayMergedMetrics(t *testing.T) {
	reps, gw := newTestFleet(t, 3)
	h := gw.Handler()
	for i := 0; i < 6; i++ {
		if rr, _ := postSweep(t, h, fmt.Sprintf("design-%d", i)); rr.Code != http.StatusOK {
			t.Fatalf("sweep %d failed: %d", i, rr.Code)
		}
	}
	var total int64
	for _, r := range reps {
		total += r.hits.Load()
	}
	if total != 6 {
		t.Fatalf("replicas served %d sweeps, want 6", total)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rr.Code)
	}
	exp, err := ParseExposition(rr.Body.Bytes())
	if err != nil {
		t.Fatalf("merged page does not parse: %v", err)
	}
	if got, ok := lookup(exp.byName["server_sweep_ok"], "server_sweep_ok", ""); !ok || got != 6 {
		t.Fatalf("merged server_sweep_ok = %v (ok=%v), want 6", got, ok)
	}
	// The gateway's own counters are in the page too.
	fam := findSampleFamily(exp, "gateway_route_total", "")
	if fam == nil {
		t.Fatal("gateway's own gateway_route_total missing from merged page")
	}
	if got, _ := lookup(fam, "gateway_route_total", ""); got != 6 {
		t.Fatalf("gateway_route_total = %v, want 6", got)
	}
	if got := gw.reg.Counter("gateway.scrape_errors").Load(); got != 0 {
		t.Fatalf("gateway.scrape_errors = %d with every replica up, want 0", got)
	}

	// A dead replica and one serving a garbled page are each skipped and
	// counted; the page still merges what the rest served.
	reps[0].ts.Close()
	reps[1].badPage.Store(true)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics with two bad replicas: %d", rr.Code)
	}
	exp, err = ParseExposition(rr.Body.Bytes())
	if err != nil {
		t.Fatalf("degraded merged page does not parse: %v", err)
	}
	if got, _ := lookup(exp.byName["server_sweep_ok"], "server_sweep_ok", ""); got != float64(reps[2].hits.Load()) {
		t.Fatalf("degraded server_sweep_ok = %v, want replica 2's %d", got, reps[2].hits.Load())
	}
	if got := gw.reg.Counter("gateway.scrape_errors").Load(); got != 2 {
		t.Fatalf("gateway.scrape_errors = %d, want 2 (one dead, one unparseable)", got)
	}
}

// /v1/designs is the deduplicated union of the replicas' catalogs.
func TestGatewayDesignUnion(t *testing.T) {
	_, gw := newTestFleet(t, 3)
	h := gw.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/designs", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("/v1/designs: %d: %s", rr.Code, rr.Body.String())
	}
	var infos []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("union has %d designs, want 3: %s", len(infos), rr.Body.String())
	}
	for i := 1; i < len(infos); i++ {
		if infos[i].Name <= infos[i-1].Name {
			t.Fatalf("union not sorted: %q before %q", infos[i-1].Name, infos[i].Name)
		}
	}
}

// /healthz degrades, then goes down, as replicas die.
func TestGatewayHealthz(t *testing.T) {
	reps, gw := newTestFleet(t, 2)
	h := gw.Handler()
	get := func() (int, string) {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		var reply struct {
			Status string `json:"status"`
		}
		_ = json.Unmarshal(rr.Body.Bytes(), &reply)
		return rr.Code, reply.Status
	}
	if code, status := get(); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthy fleet: %d %q", code, status)
	}
	reps[0].ts.Close()
	if code, status := get(); code != http.StatusOK || status != "degraded" {
		t.Fatalf("one replica down: %d %q, want 200 degraded", code, status)
	}
	reps[1].ts.Close()
	if code, status := get(); code != http.StatusServiceUnavailable || status != "down" {
		t.Fatalf("all replicas down: %d %q, want 503 down", code, status)
	}
}

func TestGatewayConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty replica list accepted")
	}
	if _, err := New(Config{Replicas: []string{"http://a:1/"}}); err == nil {
		t.Fatal("non-normalized replica accepted")
	}
	if _, err := New(Config{Replicas: []string{"http://a:1", "http://a:1"}}); err == nil {
		t.Fatal("duplicate replica accepted")
	}
}
