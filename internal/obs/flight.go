package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// RequestRecord is one flight-recorder entry: the after-the-fact answer
// to "why was that sweep slow?". It carries the request's trace ID (so
// the record joins logs and JSONL span streams), what was swept, how
// long each pipeline stage took, and how the plan was obtained.
type RequestRecord struct {
	// Time is when the request finished.
	Time time.Time `json:"time"`
	// TraceID links the record to the request's span tree ("" untraced).
	TraceID string `json:"trace_id,omitempty"`
	// Endpoint is the served route ("/v1/sweep", "/v1/designs").
	Endpoint string `json:"endpoint"`
	// Design and Fingerprint identify the swept design.
	Design      string `json:"design,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Workloads is the number of workloads in the request.
	Workloads int `json:"workloads,omitempty"`
	// Per-stage durations: ingest (decode + table validation), analyze
	// (an upload's or edit's netlist parse, validation, flattening,
	// graph and analyzer build), plan (cache/store/compile, including
	// any artifact restore), eval (the kernel), encode (rendering and
	// writing the success response).
	IngestSeconds  float64 `json:"ingest_seconds"`
	AnalyzeSeconds float64 `json:"analyze_seconds"`
	PlanSeconds    float64 `json:"plan_seconds"`
	EvalSeconds    float64 `json:"eval_seconds"`
	EncodeSeconds  float64 `json:"encode_seconds"`
	// PlanSource tells how the plan/result was obtained: "cache",
	// "store", or "compile" for sweeps; "warm" or "cold" for uploads.
	PlanSource string `json:"plan_source,omitempty"`
	// Status and Outcome report the HTTP result ("ok" or the error).
	Status  int    `json:"status"`
	Outcome string `json:"outcome"`
	// DurationSeconds is the whole request, wall clock.
	DurationSeconds float64 `json:"duration_seconds"`
}

// FlightRecorder keeps the last K request records in a fixed-size ring.
// Recording copies one struct into a preallocated slot under a mutex —
// no allocation on the hot path, and the critical section is a memcpy,
// so 64 concurrent request goroutines do not convoy behind a reader.
// All methods are safe on nil (a no-op recorder).
type FlightRecorder struct {
	mu   sync.Mutex
	recs []RequestRecord
	next int // slot for the next record
	n    int // slots filled (saturates at len(recs))
}

// NewFlightRecorder returns a recorder retaining the last k records
// (k <= 0 uses 128).
func NewFlightRecorder(k int) *FlightRecorder {
	if k <= 0 {
		k = 128
	}
	return &FlightRecorder{recs: make([]RequestRecord, k)}
}

// Record stores one request record, evicting the oldest beyond
// capacity. Safe on nil.
func (f *FlightRecorder) Record(rec RequestRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.recs[f.next] = rec
	f.next = (f.next + 1) % len(f.recs)
	if f.n < len(f.recs) {
		f.n++
	}
	f.mu.Unlock()
}

// Len reports the number of records currently retained.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Snapshot returns the retained records, newest first.
func (f *FlightRecorder) Snapshot() []RequestRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]RequestRecord, f.n)
	for i := 0; i < f.n; i++ {
		// next-1 is the newest slot; walk backwards.
		out[i] = f.recs[((f.next-1-i)%len(f.recs)+len(f.recs))%len(f.recs)]
	}
	return out
}

// Handler serves the ring as a JSON array (newest first) — the
// /debug/requests endpoint. Safe on nil (serves []).
func (f *FlightRecorder) Handler() http.Handler {
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
		recs := f.Snapshot()
		if recs == nil {
			recs = []RequestRecord{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(recs)
	})
}
