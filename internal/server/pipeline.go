package server

// The request pipeline every POST route runs through. A route supplies
// only a decode step (run inside the ingest span against the size-capped
// body) and the run step it returns (called with a concurrency slot held,
// under the request deadline); the pipeline owns the request counter, the
// trace span, the flight record, design resolution, backpressure, and the
// one mapping from errors to HTTP statuses.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"seqavf/internal/obs"
)

// job is one decoded request: the registered design it names, its
// workload count (both for the flight record), and the run step.
type job struct {
	design    string
	workloads int
	// upload marks a request that registers a new design instead of
	// naming one; its run step gets a nil design.
	upload bool
	// decode is how decodeRequest decoded the body (decodeFast or
	// decodeFallback); empty for routes whose body is not JSON.
	decode string
	// run executes the request against the resolved design d and returns
	// the response body plus the design it describes (the flight record
	// names that one: uploads and edits produce a new design).
	run func(ctx context.Context, d *Design) (resp any, out *Design, err error)
}

// decodeFunc is a route's decode step. body is the size-capped request
// body; a non-nil error may come with a partially filled job so the
// flight record still names the design and workload count.
type decodeFunc func(r *http.Request, body io.Reader) (job, error)

// serve wraps a route's decode step in the request pipeline: count the
// request, open its trace span, decode (ingest), resolve the design,
// claim a slot (429 when saturated), run under the request deadline, and
// write the response or the mapped error. Every outcome lands in the
// flight record. requests is the route's request counter and status its
// success status.
func (s *Server) serve(path string, requests *obs.Counter, status int, decode decodeFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		sp, rctx := s.reg.StartRequest(w, r, "server.request", path)
		start := time.Now()
		rec := obs.RequestRecord{Endpoint: path, Status: status, Outcome: "ok"}
		defer func() { s.finishRequest(sp, start, rec) }()

		isp := sp.Child("ingest")
		j, err := decode(r, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		rec.Design, rec.Workloads = j.design, j.workloads
		var d *Design
		if err == nil && !j.upload {
			if d = s.Design(j.design); d == nil {
				err = errorf(http.StatusNotFound, "unknown design %q (see GET /v1/designs)", j.design)
			} else {
				rec.Fingerprint = d.fingerprint()
			}
		}
		isp.SetAttr("workloads", j.workloads)
		if j.decode != "" {
			isp.SetAttr("decode", j.decode)
			if j.decode == decodeFallback {
				s.reg.Counter("server.decode_fallbacks").Inc()
			}
		}
		isp.End()
		if err != nil {
			s.fail(w, &rec, err)
			return
		}

		if !s.acquire() {
			rec.Status, rec.Outcome = http.StatusTooManyRequests, "busy"
			s.rejectBusy(w)
			return
		}
		defer s.release()
		ctx, cancel := s.requestCtx(rctx)
		defer cancel()
		resp, out, err := j.run(ctx, d)
		if err != nil {
			s.fail(w, &rec, err)
			return
		}
		if out != d {
			rec.Design, rec.Fingerprint = out.Name, out.fingerprint()
		}
		esp := sp.Child("encode")
		err = s.writeJSON(w, status, resp)
		esp.End()
		if err != nil {
			s.reg.Counter("server.encode_errors").Inc()
			s.fail(w, &rec, errorf(http.StatusInternalServerError, "encoding response: %w", err))
		}
	}
}

// statusError carries an explicit HTTP status for a route error.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// errorf formats an error (%w wraps) answered with the given status.
func errorf(status int, format string, args ...any) error {
	return &statusError{status, fmt.Errorf(format, args...)}
}

// statusOf is the pipeline's one mapping from errors to HTTP statuses
// and client-facing messages. Anything unclassified is a request the
// design cannot serve: 422.
func (s *Server) statusOf(err error) (int, string) {
	var tooLarge *http.MaxBytesError
	var se *statusError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)
	case errors.As(err, &se):
		return se.status, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, fmt.Sprintf("request timed out after %v", s.cfg.RequestTimeout)
	case errors.Is(err, context.Canceled):
		// Client gone or server aborting a drain: the 503 only reaches
		// a client that is still listening.
		return http.StatusServiceUnavailable, fmt.Sprintf("request cancelled: %v", err)
	}
	return http.StatusUnprocessableEntity, err.Error()
}

// fail answers err with its mapped status and records it.
func (s *Server) fail(w http.ResponseWriter, rec *obs.RequestRecord, err error) {
	rec.Status, rec.Outcome = s.statusOf(err)
	s.writeErr(w, rec.Status, "%s", rec.Outcome)
}

// readBody reads a whole non-JSON body.
func readBody(body io.Reader) ([]byte, error) {
	b, err := io.ReadAll(body)
	if err != nil {
		return nil, errorf(http.StatusBadRequest, "reading body: %w", err)
	}
	return b, nil
}

// finishRequest closes the request span, observes the request latency,
// derives the flight record's per-stage durations from the span's
// children, records it, and — when the request overran the slow
// threshold — promotes the full span tree to the structured slow log.
func (s *Server) finishRequest(sp *obs.Span, start time.Time, rec obs.RequestRecord) {
	sp.SetAttr("status", rec.Status)
	sp.End()
	elapsed := time.Since(start)
	s.reg.FixedHistogram("server.request_seconds", obs.LatencyBuckets).Observe(elapsed.Seconds())
	rec.Time = time.Now()
	rec.DurationSeconds = elapsed.Seconds()
	if tid := sp.TraceID(); !tid.IsZero() {
		rec.TraceID = tid.String()
	}
	for _, c := range sp.Children() {
		d := c.Duration().Seconds()
		switch c.Name() {
		case "ingest":
			rec.IngestSeconds += d
		case "analyze":
			rec.AnalyzeSeconds += d
		case "sweep.plan":
			rec.PlanSeconds += d
			if src, ok := c.Attr("source").(string); ok {
				rec.PlanSource = src
			}
		case "sweep.eval":
			rec.EvalSeconds += d
		case "encode":
			rec.EncodeSeconds += d
		case "solve", "artifact.restore":
			// Upload solves and restores count as the plan stage: they
			// are the "how do I get evaluable closed forms" phase.
			rec.PlanSeconds += d
		}
	}
	if rec.PlanSource == "" {
		if disp, ok := sp.Attr("artifact").(string); ok {
			rec.PlanSource = disp
		}
	}
	s.flight.Record(rec)
	if s.cfg.SlowRequest > 0 && elapsed >= s.cfg.SlowRequest {
		s.logSlowRequest(sp, rec)
	}
}

// logSlowRequest writes one JSON line: the flight record plus the full
// span tree of the offending request — enough to see which stage ate
// the budget without re-running anything.
func (s *Server) logSlowRequest(sp *obs.Span, rec obs.RequestRecord) {
	s.reg.Counter("server.slow_requests").Inc()
	line, err := json.Marshal(struct {
		SlowRequest obs.RequestRecord `json:"slow_request"`
		Spans       obs.SpanSnapshot  `json:"spans"`
	}{rec, sp.Snapshot()})
	if err != nil {
		return
	}
	s.slowMu.Lock()
	fmt.Fprintf(s.cfg.SlowLog, "%s\n", line)
	s.slowMu.Unlock()
}

// writeJSON encodes v as indented JSON into a reused buffer, then sends
// status, Content-Length and the body in one Write. The sweep reports
// render themselves; every other value goes through encoding/json.
// When v cannot be encoded nothing is sent and the error is returned,
// so the caller can still answer with an error status; callers whose
// values hold only strings and integers ignore it. The buffer is back
// in s.respBufs once its one Write has returned.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) error {
	buf := s.respBufs.get()
	b, err := encodeJSON(buf[:0], v)
	if err != nil {
		s.respBufs.put(buf)
		return err
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledBody {
		s.respBufs.put(b[:0])
	}
	return nil
}

// jsonAppender is a response that renders itself: the two sweep
// reports (internal/sweep/reportjson.go).
type jsonAppender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// encodeJSON appends v's indented JSON, trailing newline included, to
// dst.
func encodeJSON(dst []byte, v any) ([]byte, error) {
	if rep, ok := v.(jsonAppender); ok {
		return rep.AppendJSON(dst)
	}
	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// writeErr emits the uniform {"error": ...} body.
func (s *Server) writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	s.reg.Counter("server.errors").Inc()
	_ = s.writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// rejectBusy emits the backpressure response: 429 plus a Retry-After
// hint, so saturated clients back off instead of queueing server-side.
func (s *Server) rejectBusy(w http.ResponseWriter) {
	s.reg.Counter("server.rejected_busy").Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	_ = s.writeJSON(w, http.StatusTooManyRequests, map[string]string{
		"error": "server at concurrency limit, retry later",
	})
}
