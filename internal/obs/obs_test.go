package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines; run
// under -race this also proves the increment path is data-race free.
func TestCounterConcurrent(t *testing.T) {
	reg := New()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("shared")
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
			reg.Gauge("last").Set(float64(perWorker))
			reg.FixedHistogram("obs", LatencyBuckets).Observe(1.5)
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Load(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("last").Load(); got != perWorker {
		t.Fatalf("gauge = %v, want %v", got, float64(perWorker))
	}
	if got := reg.FixedHistogram("obs", LatencyBuckets).Count(); got != workers {
		t.Fatalf("histogram count = %d, want %d", got, workers)
	}
}

func TestSpanNesting(t *testing.T) {
	reg := New()
	root := reg.StartSpan("solve")
	env := root.Child("env")
	env.End()
	fwd := root.Child("fwd")
	inner := fwd.Child("walk")
	if got := inner.Path(); got != "solve/fwd/walk" {
		t.Fatalf("Path = %q", got)
	}
	if got := inner.Depth(); got != 2 {
		t.Fatalf("Depth = %d", got)
	}
	inner.End()
	fwd.SetAttr("vertices", 42)
	fwd.End()
	root.End()
	root.End() // idempotent

	if root.Running() {
		t.Fatal("root still running after End")
	}
	snap := reg.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("roots = %d, want 1", len(snap.Spans))
	}
	r := snap.Spans[0]
	if r.Name != "solve" || len(r.Children) != 2 {
		t.Fatalf("root = %q with %d children", r.Name, len(r.Children))
	}
	if r.Children[0].Name != "env" || r.Children[1].Name != "fwd" {
		t.Fatalf("children = %v, %v", r.Children[0].Name, r.Children[1].Name)
	}
	if len(r.Children[1].Children) != 1 || r.Children[1].Children[0].Name != "walk" {
		t.Fatalf("grandchildren malformed: %+v", r.Children[1].Children)
	}
	if r.DurationMS < 0 {
		t.Fatalf("negative duration %v", r.DurationMS)
	}
	if v, ok := r.Children[1].Attrs["vertices"]; !ok || v != 42 {
		t.Fatalf("fwd attrs = %v", r.Children[1].Attrs)
	}
}

// TestSpanDurationOrdering checks a parent's duration covers its child's.
func TestSpanDurationOrdering(t *testing.T) {
	reg := New()
	root := reg.StartSpan("outer")
	child := root.Child("inner")
	time.Sleep(2 * time.Millisecond)
	child.End()
	root.End()
	if root.Duration() < child.Duration() {
		t.Fatalf("parent %v shorter than child %v", root.Duration(), child.Duration())
	}
	if child.Duration() < 2*time.Millisecond {
		t.Fatalf("child duration %v < slept 2ms", child.Duration())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := New()
	reg.SetManifest("workload", "md5")
	reg.SetManifest("seed", 42.0)
	reg.Counter("core.union_ops").Add(123)
	reg.Gauge("core.max_delta").Set(0.25)
	reg.FixedHistogram("core.iter_delta", []float64{1, 2}).Observe(0.5)
	reg.FixedHistogram("core.iter_delta", []float64{1, 2}).Observe(2.0)
	sp := reg.StartSpan("solve")
	sp.SetAttr("converged", true)
	sp.Child("fwd").End()
	sp.End()

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var got Snapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Manifest["workload"] != "md5" || got.Manifest["seed"] != 42.0 {
		t.Fatalf("manifest = %v", got.Manifest)
	}
	if got.Counters["core.union_ops"] != 123 {
		t.Fatalf("counters = %v", got.Counters)
	}
	if got.Gauges["core.max_delta"] != 0.25 {
		t.Fatalf("gauges = %v", got.Gauges)
	}
	h := got.Histograms["core.iter_delta"]
	if h.Count != 2 || h.Sum != 2.5 || h.Min != 0.5 || h.Max != 2.0 || h.Mean != 1.25 {
		t.Fatalf("histogram = %+v", h)
	}
	// 0.5 lands in bucket le=1; 2.0 in le=2 (bounds are inclusive).
	if len(h.Bounds) != 2 || h.Bounds[0] != 1 || h.Bounds[1] != 2 || len(h.Counts) != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Fatalf("bounds = %v, counts = %v", h.Bounds, h.Counts)
	}
	if len(got.Spans) != 1 || got.Spans[0].Name != "solve" {
		t.Fatalf("spans = %+v", got.Spans)
	}
	if got.Spans[0].Attrs["converged"] != true {
		t.Fatalf("span attrs = %v", got.Spans[0].Attrs)
	}
	if len(got.Spans[0].Children) != 1 || got.Spans[0].Children[0].Name != "fwd" {
		t.Fatalf("span children = %+v", got.Spans[0].Children)
	}
}

// TestNilSafety exercises every entry point through a nil registry — the
// always-off path instrumented code relies on.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("c").Add(1)
	reg.Counter("c").Inc()
	if reg.Counter("c").Load() != 0 {
		t.Fatal("nil counter loaded non-zero")
	}
	reg.Gauge("g").Set(1)
	if reg.Gauge("g").Load() != 0 {
		t.Fatal("nil gauge loaded non-zero")
	}
	reg.FixedHistogram("h", LatencyBuckets).Observe(1)
	reg.SetManifest("k", "v")
	reg.SetSink(Discard)
	sp := reg.StartSpan("root")
	if sp != nil {
		t.Fatal("nil registry produced a span")
	}
	sp.SetAttr("k", 1)
	child := sp.Child("c")
	child.End()
	sp.End()
	if sp.Duration() != 0 || sp.Path() != "" || sp.Depth() != 0 || sp.Running() {
		t.Fatal("nil span misbehaved")
	}
	snap := reg.Snapshot()
	if snap == nil || len(snap.Counters) != 0 {
		t.Fatalf("nil snapshot = %+v", snap)
	}
	var buf bytes.Buffer
	reg.WritePhaseSummary(&buf)
	if buf.Len() != 0 {
		t.Fatalf("nil phase summary wrote %q", buf.String())
	}
}

func TestSinks(t *testing.T) {
	var text, jsonl bytes.Buffer
	reg := New()
	reg.SetSink(NewTextSink(&text))
	root := reg.StartSpan("campaign")
	c := root.Child("golden")
	c.SetAttr("cycles", 100)
	c.End()
	reg.SetSink(NewJSONLSink(&jsonl))
	root.SetAttr("sites", 3)
	root.End()

	if !strings.Contains(text.String(), "golden") || !strings.Contains(text.String(), "cycles=100") {
		t.Fatalf("text sink output %q", text.String())
	}
	var ev struct {
		Span       string         `json:"span"`
		DurationMS float64        `json:"duration_ms"`
		Attrs      map[string]any `json:"attrs"`
	}
	if err := json.Unmarshal(jsonl.Bytes(), &ev); err != nil {
		t.Fatalf("jsonl output %q: %v", jsonl.String(), err)
	}
	if ev.Span != "campaign" || ev.Attrs["sites"] != 3.0 {
		t.Fatalf("jsonl event = %+v", ev)
	}
}

func TestPhaseSummary(t *testing.T) {
	reg := New()
	root := reg.StartSpan("solve")
	root.Child("fwd").End()
	root.End()
	var buf bytes.Buffer
	reg.WritePhaseSummary(&buf)
	out := buf.String()
	if !strings.Contains(out, "phase timings:") ||
		!strings.Contains(out, "solve") || !strings.Contains(out, "fwd") {
		t.Fatalf("summary = %q", out)
	}
}

func TestWriteFile(t *testing.T) {
	reg := New()
	reg.Counter("x").Inc()
	path := t.TempDir() + "/metrics.json"
	if err := reg.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), "\"x\": 1") {
		t.Fatalf("snapshot json = %q", buf.String())
	}
}
