package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"seqavf/internal/netlist"
	"seqavf/internal/obs"
)

// Config parameterizes a Gateway. Replicas is required; everything else
// has serviceable defaults.
type Config struct {
	// Replicas is the static fleet: normalized base URLs (see
	// ParseReplicaList). Routing keys rendezvous-hash over this list.
	Replicas []string
	// Obs receives gateway telemetry: per-route counters, the unhealthy-
	// replica gauge, and request spans. nil disables instrumentation.
	Obs *obs.Registry
	// Client performs proxied requests. nil uses a client with a 10s
	// timeout.
	Client *http.Client
	// MaxBodyBytes caps request bodies buffered for routing. 0 means 8MB.
	MaxBodyBytes int64
	// Retries bounds additional replicas tried after the owner fails
	// (dead replica → next hash choice). 0 means every remaining replica.
	Retries int
	// Backoff is the pause between fail-over attempts. 0 means 50ms.
	Backoff time.Duration
	// Cooldown quarantines a replica after a transport failure: it drops
	// to the back of every preference list until the cooldown elapses.
	// 0 means 5s.
	Cooldown time.Duration
}

// Gateway fronts a fleet of seqavfd replicas: it consistent-hash routes
// design traffic (sweeps, interval sweeps, hardening, uploads, edits,
// artifact fetches) to the owning replica, fails over with backoff when
// the owner is dead, propagates W3C trace context so a request's span
// tree continues inside the replica, and aggregates the fleet's
// Prometheus expositions on its own /metrics.
type Gateway struct {
	cfg    Config
	reg    *obs.Registry
	client *http.Client

	mu   sync.Mutex
	down map[string]time.Time // replica → quarantined until
}

// New validates cfg and returns a Gateway.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("fleet: gateway needs at least one replica")
	}
	seen := make(map[string]bool)
	for _, r := range cfg.Replicas {
		norm, err := NormalizeReplica(r)
		if err != nil {
			return nil, err
		}
		if norm != r {
			return nil, fmt.Errorf("fleet: replica %q is not normalized (want %q)", r, norm)
		}
		if seen[r] {
			return nil, fmt.Errorf("fleet: duplicate replica %q", r)
		}
		seen[r] = true
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Retries <= 0 || cfg.Retries > len(cfg.Replicas)-1 {
		cfg.Retries = len(cfg.Replicas) - 1
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	return &Gateway{
		cfg:    cfg,
		reg:    cfg.Obs,
		client: cfg.Client,
		down:   make(map[string]time.Time),
	}, nil
}

// Replicas returns the configured replica list.
func (g *Gateway) Replicas() []string { return append([]string(nil), g.cfg.Replicas...) }

// Handler returns the gateway mux:
//
//	GET  /healthz        — fleet health: per-replica liveness fan-out
//	GET  /metrics        — fleet-wide Prometheus exposition (merged)
//	GET  /metrics.json   — the gateway's own obs registry snapshot
//	GET  /v1/designs     — union of every replica's registered designs
//	POST /v1/designs     — routed by the design's name (?name= or the
//	                       netlist's), then replicated to the runner-up
//	POST /v1/designs/{name}/edit — routed by name, then replicated
//	POST /v1/sweep       — routed by the envelope's design field
//	POST /v1/sweep/intervals — routed by the envelope's design field
//	POST /v1/harden      — routed by the envelope's design field
//	GET  /v1/artifacts/{fingerprint} — routed by artifact fingerprint
//
// Every routed request goes to its key's rendezvous owner through one
// path (proxy → forward), and the owner's response streams back
// unchanged.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.Handle("GET /metrics.json", g.reg.MetricsHandler())
	mux.HandleFunc("GET /v1/designs", g.handleListDesigns)
	g.proxy(mux, "POST /v1/designs", g.reg.Counter("gateway.upload_requests"), "design", uploadKey, true)
	g.proxy(mux, "POST /v1/designs/{name}/edit", g.reg.Counter("gateway.edit_requests"), "design", pathKey("name"), true)
	g.proxy(mux, "POST /v1/sweep", g.reg.Counter("gateway.sweep_requests"), "design", designKey, false)
	g.proxy(mux, "POST /v1/sweep/intervals", g.reg.Counter("gateway.intervals_requests"), "design", designKey, false)
	g.proxy(mux, "POST /v1/harden", g.reg.Counter("gateway.harden_requests"), "design", designKey, false)
	g.proxy(mux, "GET /v1/artifacts/{fingerprint}", g.reg.Counter("gateway.artifact_requests"), "fingerprint", pathKey("fingerprint"), false)
	return mux
}

// startRequest opens the gateway's request span through the same
// traceparent adoption the replica uses (obs.Registry.StartRequest) — so
// client → gateway → replica is one trace.
func (g *Gateway) startRequest(w http.ResponseWriter, r *http.Request, endpoint string) (*obs.Span, context.Context) {
	return g.reg.StartRequest(w, r, "gateway.request", endpoint)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (g *Gateway) writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	g.reg.Counter("gateway.errors").Inc()
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// healthy reports whether a replica is outside its quarantine window.
func (g *Gateway) healthy(replica string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	until, quarantined := g.down[replica]
	if quarantined && time.Now().After(until) {
		delete(g.down, replica)
		g.reg.Gauge("gateway.replica_unhealthy").Set(float64(len(g.down)))
		return true
	}
	return !quarantined
}

// markDown quarantines a replica for the cooldown; markUp clears it on
// the first successful response.
func (g *Gateway) markDown(replica string) {
	g.mu.Lock()
	g.down[replica] = time.Now().Add(g.cfg.Cooldown)
	g.reg.Gauge("gateway.replica_unhealthy").Set(float64(len(g.down)))
	g.mu.Unlock()
}

func (g *Gateway) markUp(replica string) {
	g.mu.Lock()
	if _, ok := g.down[replica]; ok {
		delete(g.down, replica)
		g.reg.Gauge("gateway.replica_unhealthy").Set(float64(len(g.down)))
	}
	g.mu.Unlock()
}

// rank orders the fleet for a routing key: rendezvous order, with
// quarantined replicas demoted to the tail (they are still tried last —
// a fully dark fleet should produce connection errors, not a routing
// dead end).
func (g *Gateway) rank(key string) []string {
	ranked := Rank(key, g.cfg.Replicas)
	healthy := make([]string, 0, len(ranked))
	var quarantined []string
	for _, r := range ranked {
		if g.healthy(r) {
			healthy = append(healthy, r)
		} else {
			quarantined = append(quarantined, r)
		}
	}
	return append(healthy, quarantined...)
}

// retryableStatus reports replica responses worth failing over: the
// gateway-ish 5xx family a dying or draining replica emits. Everything
// else — including 429 backpressure and 4xx client errors — passes
// through, because the next hash choice would answer no differently
// (and a 429 must reach the client so it backs off).
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout
}

// forward proxies one request to the fleet: replicas are tried in rank
// order (owner first), transport failures and retryable statuses
// quarantine the replica and fail over to the next choice after the
// backoff, and the first conclusive response streams back to the
// client. key is the routing key; pathAndQuery is the upstream path and
// query; body may be nil for GETs. Returns the replica that served the
// conclusive response and its status code ("" and 502 when no replica
// answered) so callers can replicate writes to the runner-up.
func (g *Gateway) forward(ctx context.Context, w http.ResponseWriter, key, method, pathAndQuery, contentType string, body []byte) (string, int) {
	ranked := g.rank(key)
	attempts := g.cfg.Retries + 1
	if attempts > len(ranked) {
		attempts = len(ranked)
	}
	sp := obs.SpanFromContext(ctx)
	var lastErr error
	for i := 0; i < attempts; i++ {
		replica := ranked[i]
		if i > 0 {
			g.reg.Counter("gateway.retries").Inc()
			select {
			case <-time.After(g.cfg.Backoff):
			case <-ctx.Done():
				g.reg.Counter("gateway.proxy_errors").Inc()
				g.writeErr(w, http.StatusBadGateway, "fleet: %v", ctx.Err())
				return "", http.StatusBadGateway
			}
		}
		req, err := newUpstream(ctx, method, replica+pathAndQuery, contentType, body)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := g.client.Do(req)
		if err != nil {
			lastErr = err
			g.reg.Counter("gateway.replica_errors").Inc()
			g.markDown(replica)
			continue
		}
		if retryableStatus(resp.StatusCode) && i+1 < attempts {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			lastErr = fmt.Errorf("replica %s returned %s", replica, resp.Status)
			g.reg.Counter("gateway.replica_errors").Inc()
			g.markDown(replica)
			continue
		}
		g.markUp(replica)
		g.reg.Counter("gateway.route_total").Inc()
		sp.SetAttr("replica", replica)
		sp.SetAttr("attempts", i+1)
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		resp.Body.Close()
		return replica, resp.StatusCode
	}
	g.reg.Counter("gateway.proxy_errors").Inc()
	sp.SetAttr("error", fmt.Sprint(lastErr))
	g.writeErr(w, http.StatusBadGateway, "fleet: no replica answered for key %q: %v", key, lastErr)
	return "", http.StatusBadGateway
}

// keyFunc derives a proxied request's routing key from the request and
// its buffered body. A failure names the status the gateway answers.
type keyFunc func(r *http.Request, body []byte) (key string, status int, err error)

// designKey routes by the JSON envelope's design field. Only the key is
// needed here; the owning replica re-decodes and fully validates the
// envelope.
func designKey(_ *http.Request, body []byte) (string, int, error) {
	var env struct {
		Design string `json:"design"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return "", http.StatusBadRequest, fmt.Errorf("decoding request: %v", err)
	}
	if env.Design == "" {
		return "", http.StatusBadRequest, errors.New("request names no design to route by")
	}
	return env.Design, 0, nil
}

// uploadKey routes an upload by the name the design will register
// under: the ?name= override when present, else the netlist's own
// design name.
func uploadKey(r *http.Request, body []byte) (string, int, error) {
	if name := r.URL.Query().Get("name"); name != "" {
		return name, 0, nil
	}
	d, err := netlist.Parse(bytes.NewReader(body))
	if err != nil {
		return "", http.StatusUnprocessableEntity, fmt.Errorf("parsing netlist to route upload: %v", err)
	}
	return d.Name, 0, nil
}

// pathKey routes by a path wildcard: a design name or an artifact
// fingerprint.
func pathKey(wildcard string) keyFunc {
	return func(r *http.Request, _ []byte) (string, int, error) {
		return r.PathValue(wildcard), 0, nil
	}
}

// proxy registers one routed endpoint on mux. Every proxied request
// runs the same steps: count it on requests, open the request
// span, buffer the body under MaxBodyBytes, derive the routing key
// (recorded as the span attribute attr), and forward the client's
// method, path and query to the key's rendezvous owner. With replicate
// set, a design write the fleet accepted (2xx) is also copied to the
// runner-up (replicateDesign).
func (g *Gateway) proxy(mux *http.ServeMux, pattern string, requests *obs.Counter, attr string, key keyFunc, replicate bool) {
	_, endpoint, _ := strings.Cut(pattern, " ")
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		sp, ctx := g.startRequest(w, r, endpoint)
		defer sp.End()
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			g.writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return
		case err != nil:
			g.writeErr(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		k, status, err := key(r, body)
		if err != nil {
			g.writeErr(w, status, "%v", err)
			return
		}
		sp.SetAttr(attr, k)
		contentType := r.Header.Get("Content-Type")
		replica, status := g.forward(ctx, w, k, r.Method, r.URL.RequestURI(), contentType, body)
		if replicate && status >= 200 && status < 300 {
			g.replicateDesign(ctx, replica, k, contentType, body)
		}
	})
}

// replicateDesign best-effort copies a design write that just succeeded
// on `served` to the highest-ranked other replica, so the top-2
// rendezvous candidates both hold the design. Without this, an owner
// failure strands routed reads: /v1/sweep and /v1/harden fail over to
// the runner-up and get a 404 for a design only the dead owner ever
// saw. The upload and edit bodies are both full netlists, so one
// sequence covers both: try the edit endpoint (idempotent when the
// secondary already has the design), and fall back to a named upload
// when it answers 404. Failures only count gateway.design_fanout_errors
// — the primary write already succeeded and was acked to the client.
func (g *Gateway) replicateDesign(ctx context.Context, served, name, contentType string, body []byte) {
	if served == "" || len(g.cfg.Replicas) < 2 {
		return
	}
	var secondary string
	for _, r := range Rank(name, g.cfg.Replicas) {
		if r != served {
			secondary = r
			break
		}
	}
	if secondary == "" {
		return
	}
	editPath := "/v1/designs/" + strings.ReplaceAll(name, "/", "%2F") + "/edit"
	status, err := g.post(ctx, secondary+editPath, contentType, body)
	if err == nil && status == http.StatusNotFound {
		status, err = g.post(ctx, secondary+"/v1/designs?name="+url.QueryEscape(name), contentType, body)
	}
	if err != nil || status < 200 || status >= 300 {
		g.reg.Counter("gateway.design_fanout_errors").Inc()
		return
	}
	g.reg.Counter("gateway.design_fanout_total").Inc()
}

// newUpstream builds every request the gateway sends a replica. It
// carries the client's Content-Type and the gateway span's traceparent,
// so client → gateway → replica is one trace.
func newUpstream(ctx context.Context, method, url, contentType string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if sp := obs.SpanFromContext(ctx); sp != nil && !sp.TraceID().IsZero() {
		req.Header.Set("traceparent", obs.FormatTraceparent(sp.TraceID(), sp.SpanID()))
	}
	return req, nil
}

// post issues an internal POST (replication traffic) and returns the
// status code; the response body is drained and discarded.
func (g *Gateway) post(ctx context.Context, url, contentType string, body []byte) (int, error) {
	req, err := newUpstream(ctx, http.MethodPost, url, contentType, body)
	if err != nil {
		return 0, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	return resp.StatusCode, nil
}

// handleListDesigns unions GET /v1/designs across the fleet: with
// rendezvous routing each design registers on one owner, so the fleet's
// catalog is the deduplicated union of the replicas' catalogs.
func (g *Gateway) handleListDesigns(w http.ResponseWriter, r *http.Request) {
	sp, ctx := g.startRequest(w, r, "/v1/designs")
	defer sp.End()
	type reply struct {
		replica string
		infos   []json.RawMessage
		err     error
	}
	replies := fanout(g, func(replica string) reply {
		var infos []json.RawMessage
		err := g.getJSON(ctx, replica+"/v1/designs", &infos)
		return reply{replica, infos, err}
	})
	seen := make(map[string]json.RawMessage)
	errs := 0
	for _, rep := range replies {
		if rep.err != nil {
			errs++
			continue
		}
		for _, raw := range rep.infos {
			var named struct {
				Name string `json:"name"`
			}
			if json.Unmarshal(raw, &named) == nil && named.Name != "" {
				seen[named.Name] = raw
			}
		}
	}
	if errs == len(replies) {
		g.writeErr(w, http.StatusBadGateway, "fleet: no replica answered /v1/designs")
		return
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]json.RawMessage, len(names))
	for i, n := range names {
		out[i] = seen[n]
	}
	writeJSON(w, http.StatusOK, out)
}

// ReplicaHealth is one replica's row in the gateway /healthz reply.
type ReplicaHealth struct {
	Replica string `json:"replica"`
	OK      bool   `json:"ok"`
	Designs int    `json:"designs,omitempty"`
	Error   string `json:"error,omitempty"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, ctx := g.startRequest(w, r, "/healthz")
	rows := fanout(g, func(replica string) ReplicaHealth {
		var hz struct {
			Designs int `json:"designs"`
		}
		if err := g.getJSON(ctx, replica+"/healthz", &hz); err != nil {
			return ReplicaHealth{Replica: replica, Error: err.Error()}
		}
		return ReplicaHealth{Replica: replica, OK: true, Designs: hz.Designs}
	})
	up := 0
	for _, row := range rows {
		if row.OK {
			up++
		}
	}
	status, state := http.StatusOK, "ok"
	switch {
	case up == 0:
		status, state = http.StatusServiceUnavailable, "down"
	case up < len(rows):
		state = "degraded"
	}
	writeJSON(w, status, map[string]any{
		"status":   state,
		"replicas": rows,
	})
}

// handleMetrics serves the fleet-wide exposition: every reachable
// replica's /metrics page plus the gateway's own registry, summed
// point-wise. Unreachable or unparseable replicas are skipped and
// counted (gateway.scrape_errors) — a dead replica must not take the
// fleet's dashboards down with it.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	_, ctx := g.startRequest(w, r, "/metrics")
	pages := fanout(g, func(replica string) *Exposition {
		data, err := g.get(ctx, replica+"/metrics")
		if err != nil {
			g.reg.Counter("gateway.scrape_errors").Inc()
			return nil
		}
		exp, err := ParseExposition(data)
		if err != nil {
			g.reg.Counter("gateway.scrape_errors").Inc()
			return nil
		}
		return exp
	})
	var own strings.Builder
	_ = g.reg.WriteProm(&own)
	if exp, err := ParseExposition([]byte(own.String())); err == nil {
		pages = append(pages, exp)
	}
	merged, err := Merge(pages...)
	if err != nil {
		g.writeErr(w, http.StatusInternalServerError, "merging expositions: %v", err)
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	var sb strings.Builder
	merged.WriteTo(&sb)
	io.WriteString(w, sb.String())
}

// fanout runs fn against every replica concurrently and returns the
// results in replica order. Methods cannot be generic, so the
// aggregation endpoints call this free function with the gateway as the
// first argument.
func fanout[T any](g *Gateway, fn func(replica string) T) []T {
	out := make([]T, len(g.cfg.Replicas))
	var wg sync.WaitGroup
	for i, replica := range g.cfg.Replicas {
		wg.Add(1)
		go func(i int, replica string) {
			defer wg.Done()
			out[i] = fn(replica)
		}(i, replica)
	}
	wg.Wait()
	return out
}

// get fetches a URL through the gateway's client.
func (g *Gateway) get(ctx context.Context, url string) ([]byte, error) {
	req, err := newUpstream(ctx, http.MethodGet, url, "", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxExpositionBytes+1))
}

// getJSON fetches and decodes a JSON endpoint.
func (g *Gateway) getJSON(ctx context.Context, url string, v any) error {
	data, err := g.get(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
