package obs

import (
	"context"
	"encoding/json"
	"net/http"
)

// MetricsHandler serves the registry's JSON snapshot — counters, gauges,
// histograms, span trees, and the run manifest — as one document per GET.
// It is the /metrics.json endpoint of long-running processes (seqavfd);
// batch CLIs keep using WriteFile via the -metrics flag, and Prometheus
// scrapers use PromHandler. Safe on a nil registry, which serves the
// empty snapshot.
//
// The response is materialized from one consistent Snapshot (a single
// registry read pass — see Registry.Snapshot) rather than by reading
// metric families piecemeal while writers are active, and carries an
// explicit charset so proxies do not have to sniff.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		snap := r.Snapshot()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Headers are already out on error; nothing useful left to send.
		_ = enc.Encode(snap)
	})
}

// StartRequest opens the root span of one served HTTP request under
// name, tagged with endpoint: it adopts an incoming W3C traceparent
// header (so a caller's trace continues through this process), echoes
// the assigned traceparent on the response, and returns the span plus a
// context carrying it for downstream stages. Safe on a nil registry,
// which yields a nil (no-op) span.
func (r *Registry) StartRequest(w http.ResponseWriter, req *http.Request, name, endpoint string) (*Span, context.Context) {
	ctx := req.Context()
	if tid, pid, ok := ParseTraceparent(req.Header.Get("traceparent")); ok {
		ctx = ContextWithRemoteParent(ctx, tid, pid)
	}
	sp := r.StartSpanContext(ctx, name)
	sp.SetAttr("endpoint", endpoint)
	if tid := sp.TraceID(); !tid.IsZero() {
		w.Header().Set("traceparent", FormatTraceparent(tid, sp.SpanID()))
	}
	return sp, ContextWithSpan(ctx, sp)
}
