package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"seqavf/internal/obs"
)

// The gateway's route contract: every proxied endpoint reaches its
// routing key's rendezvous owner with the client's method, path + query,
// body, Content-Type and trace ID intact, and every ingest fault answers
// a fixed status and {"error": ...} body with gateway.errors and the
// route's request counter bumped.

const (
	contractTraceID     = "0123456789abcdef0123456789abcdef"
	contractTraceparent = "00-" + contractTraceID + "-00f067aa0ba902b7-01"
	contractMaxBody     = 1 << 12
)

// contractGateway builds a gateway over three stub replicas. client, if
// non-nil, replaces the gateway's HTTP client.
func contractGateway(t *testing.T, client *http.Client) (map[string]*stubReplica, *Gateway) {
	t.Helper()
	byURL := make(map[string]*stubReplica)
	var urls []string
	for i := 0; i < 3; i++ {
		sr := newStubReplica(t, fmt.Sprintf("r%d", i))
		byURL[sr.ts.URL] = sr
		urls = append(urls, sr.ts.URL)
	}
	gw, err := New(Config{
		Replicas:     urls,
		Obs:          obs.New(),
		Client:       client,
		MaxBodyBytes: contractMaxBody,
		Backoff:      time.Millisecond,
		Cooldown:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return byURL, gw
}

func serveContract(gw *Gateway, method, target, contentType, body string) *httptest.ResponseRecorder {
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, target, nil)
	} else {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set("traceparent", contractTraceparent)
	rr := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rr, req)
	return rr
}

func TestGatewayRouteContract(t *testing.T) {
	const netlistText = "design netlist-named\nmodule m\nendmodule\ntop f m\n"
	cases := []struct {
		name        string
		method      string
		target      string // client path + query; the owner must see it verbatim
		contentType string
		body        string
		key         string // routing key
		counter     string
		status      int // the owner's status, passed through
		replicates  bool
	}{
		{name: "sweep", method: "POST", target: "/v1/sweep", contentType: "application/json",
			body: `{"design":"core-a","workloads":[]}`, key: "core-a",
			counter: "gateway.sweep_requests", status: http.StatusOK},
		{name: "intervals", method: "POST", target: "/v1/sweep/intervals", contentType: "application/json",
			body: `{"design":"core-b","workloads":[]}`, key: "core-b",
			counter: "gateway.intervals_requests", status: http.StatusOK},
		{name: "harden", method: "POST", target: "/v1/harden", contentType: "application/json",
			body: `{"design":"core-c","budgets":[1024],"solver":"greedy"}`, key: "core-c",
			counter: "gateway.harden_requests", status: http.StatusOK},
		{name: "upload-named", method: "POST", target: "/v1/designs?name=named-upload", contentType: "text/plain",
			body: netlistText, key: "named-upload",
			counter: "gateway.upload_requests", status: http.StatusCreated, replicates: true},
		{name: "upload-netlist", method: "POST", target: "/v1/designs", contentType: "text/plain",
			body: netlistText, key: "netlist-named",
			counter: "gateway.upload_requests", status: http.StatusCreated, replicates: true},
		{name: "edit", method: "POST", target: "/v1/designs/lib%2Falu/edit", contentType: "text/plain",
			body: netlistText, key: "lib/alu",
			counter: "gateway.edit_requests", status: http.StatusOK, replicates: true},
		{name: "artifact", method: "GET", target: "/v1/artifacts/00ff00ff00ff00ff", key: "00ff00ff00ff00ff",
			counter: "gateway.artifact_requests", status: http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			byURL, gw := contractGateway(t, nil)
			rr := serveContract(gw, tc.method, tc.target, tc.contentType, tc.body)
			ranked := Rank(tc.key, gw.Replicas())
			owner := byURL[ranked[0]]
			var reply struct {
				ServedBy string `json:"served_by"`
			}
			if err := json.Unmarshal(rr.Body.Bytes(), &reply); err != nil || rr.Code != tc.status || reply.ServedBy != owner.id {
				t.Fatalf("status %d body %s; want %d from owner %s", rr.Code, rr.Body.String(), tc.status, owner.id)
			}
			seen := owner.requests()
			if len(seen) != 1 {
				t.Fatalf("owner saw %d requests, want 1: %+v", len(seen), seen)
			}
			got := seen[0]
			want := seenRequest{Method: tc.method, URI: tc.target, ContentType: tc.contentType, Body: tc.body}
			want.Traceparent = got.Traceparent
			if got != want {
				t.Errorf("owner saw %+v\nwant %+v", got, want)
			}
			if !strings.Contains(got.Traceparent, contractTraceID) {
				t.Errorf("owner saw traceparent %q, want the client's trace ID", got.Traceparent)
			}
			if n := gw.reg.Counter(tc.counter).Load(); n != 1 {
				t.Errorf("%s = %d, want 1", tc.counter, n)
			}
			if n := gw.reg.Counter("gateway.errors").Load(); n != 0 {
				t.Errorf("gateway.errors = %d on the happy path", n)
			}
			// Design writes also land on the runner-up; nothing else
			// touches any replica but the owner.
			wantFanout, runnerUp := int64(0), 0
			if tc.replicates {
				wantFanout, runnerUp = 1, 1
			}
			if n := gw.reg.Counter("gateway.design_fanout_total").Load(); n != wantFanout {
				t.Errorf("gateway.design_fanout_total = %d, want %d", n, wantFanout)
			}
			if n := len(byURL[ranked[1]].requests()); n != runnerUp {
				t.Errorf("runner-up saw %d requests, want %d", n, runnerUp)
			}
			if n := len(byURL[ranked[2]].requests()); n != 0 {
				t.Errorf("third replica saw %d requests, want 0", n)
			}
		})
	}
}

// errReplicaDown is what the all-replicas-down transport answers.
var errReplicaDown = errors.New("replica down")

func TestGatewayRouteFaults(t *testing.T) {
	oversize := strings.Repeat("x", contractMaxBody+1)
	tooLarge := fmt.Sprintf("request body exceeds %d bytes", contractMaxBody)
	const (
		noDesign  = "request names no design to route by"
		truncated = "decoding request: unexpected end of JSON input"
	)
	jsonRoutes := []struct{ name, target, counter string }{
		{"sweep", "/v1/sweep", "gateway.sweep_requests"},
		{"intervals", "/v1/sweep/intervals", "gateway.intervals_requests"},
		{"harden", "/v1/harden", "gateway.harden_requests"},
	}
	type faultCase struct {
		name    string
		method  string
		target  string
		body    string
		counter string
		down    bool   // every replica's transport fails
		key     string // routing key, for the all-down message
		status  int
		wantErr string
	}
	var cases []faultCase
	for _, r := range jsonRoutes {
		cases = append(cases,
			faultCase{name: r.name + "/oversize", method: "POST", target: r.target, body: oversize,
				counter: r.counter, status: http.StatusRequestEntityTooLarge, wantErr: tooLarge},
			faultCase{name: r.name + "/malformed", method: "POST", target: r.target, body: `{"design":`,
				counter: r.counter, status: http.StatusBadRequest, wantErr: truncated},
			faultCase{name: r.name + "/no-design", method: "POST", target: r.target, body: `{"workloads":[]}`,
				counter: r.counter, status: http.StatusBadRequest, wantErr: noDesign},
			faultCase{name: r.name + "/all-down", method: "POST", target: r.target, body: `{"design":"dark"}`,
				counter: r.counter, down: true, key: "dark", status: http.StatusBadGateway},
		)
	}
	cases = append(cases,
		faultCase{name: "upload/oversize", method: "POST", target: "/v1/designs", body: oversize,
			counter: "gateway.upload_requests", status: http.StatusRequestEntityTooLarge, wantErr: tooLarge},
		faultCase{name: "upload/unparseable", method: "POST", target: "/v1/designs", body: "not a netlist\n",
			counter: "gateway.upload_requests", status: http.StatusUnprocessableEntity,
			wantErr: "parsing netlist to route upload: netlist: line 1: file must start with a design line"},
		faultCase{name: "upload/all-down", method: "POST", target: "/v1/designs?name=dark", body: "design dark\n",
			counter: "gateway.upload_requests", down: true, key: "dark", status: http.StatusBadGateway},
		faultCase{name: "edit/oversize", method: "POST", target: "/v1/designs/dark/edit", body: oversize,
			counter: "gateway.edit_requests", status: http.StatusRequestEntityTooLarge, wantErr: tooLarge},
		faultCase{name: "edit/all-down", method: "POST", target: "/v1/designs/dark/edit", body: "design dark\n",
			counter: "gateway.edit_requests", down: true, key: "dark", status: http.StatusBadGateway},
		faultCase{name: "artifact/all-down", method: "GET", target: "/v1/artifacts/00ff", counter: "gateway.artifact_requests",
			down: true, key: "00ff", status: http.StatusBadGateway},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var client *http.Client
			if tc.down {
				client = &http.Client{Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
					return nil, errReplicaDown
				})}
			}
			byURL, gw := contractGateway(t, client)
			wantErr := tc.wantErr
			if tc.down {
				// Every replica is tried in rank order; the message names
				// the last one's transport error.
				ranked := Rank(tc.key, gw.Replicas())
				op := tc.method[:1] + strings.ToLower(tc.method[1:])
				last := &url.Error{Op: op, URL: ranked[len(ranked)-1] + tc.target, Err: errReplicaDown}
				wantErr = fmt.Sprintf("fleet: no replica answered for key %q: %v", tc.key, last)
			}
			rr := serveContract(gw, tc.method, tc.target, "application/json", tc.body)
			var reply map[string]string
			if err := json.Unmarshal(rr.Body.Bytes(), &reply); err != nil {
				t.Fatalf("status %d, body %q is not JSON: %v", rr.Code, rr.Body.String(), err)
			}
			if rr.Code != tc.status || len(reply) != 1 || reply["error"] != wantErr {
				t.Fatalf("got %d %v\nwant %d {error: %q}", rr.Code, reply, tc.status, wantErr)
			}
			if n := gw.reg.Counter("gateway.errors").Load(); n != 1 {
				t.Errorf("gateway.errors = %d, want 1", n)
			}
			if n := gw.reg.Counter(tc.counter).Load(); n != 1 {
				t.Errorf("%s = %d, want 1", tc.counter, n)
			}
			for _, sr := range byURL {
				if n := len(sr.requests()); n != 0 {
					t.Errorf("replica %s saw %d requests for a rejected request", sr.id, n)
				}
			}
		})
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
