package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// parseProm splits exposition text into name → []"(labels) value" sample
// lines, skipping comments.
func parseProm(t *testing.T, text string) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
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
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			out[name[:i]] = append(out[name[:i]], line)
		} else {
			out[name] = append(out[name], line)
		}
	}
	return out
}

func TestWritePromCountersGauges(t *testing.T) {
	reg := New()
	reg.Counter("server.sweep_ok").Add(7)
	reg.Gauge("server.in_flight").Set(3)
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE server_sweep_ok counter\nserver_sweep_ok 7\n") {
		t.Fatalf("counter exposition missing:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE server_in_flight gauge\nserver_in_flight 3\n") {
		t.Fatalf("gauge exposition missing:\n%s", out)
	}
}

// TestWritePromFixedHistogram checks the full family contract: cumulative
// monotone buckets, le="+Inf" equal to _count, and a correct _sum.
func TestWritePromFixedHistogram(t *testing.T) {
	reg := New()
	h := reg.FixedHistogram("server.request_seconds", LatencyBuckets)
	obsd := []float64{0.0004, 0.003, 0.003, 0.08, 42} // 42 > last bound: +Inf only
	var sum float64
	for _, v := range obsd {
		h.Observe(v)
		sum += v
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	samples := parseProm(t, buf.String())
	buckets := samples["server_request_seconds_bucket"]
	if len(buckets) != len(LatencyBuckets)+1 {
		t.Fatalf("bucket series = %d, want %d", len(buckets), len(LatencyBuckets)+1)
	}
	var prev uint64
	for i, line := range buckets {
		var cum uint64
		fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &cum)
		if cum < prev {
			t.Fatalf("bucket %d not cumulative: %q after %d", i, line, prev)
		}
		prev = cum
	}
	last := buckets[len(buckets)-1]
	if !strings.HasPrefix(last, `server_request_seconds_bucket{le="+Inf"} `) {
		t.Fatalf("last bucket %q not +Inf", last)
	}
	if prev != uint64(len(obsd)) {
		t.Fatalf("+Inf cumulative = %d, want %d", prev, len(obsd))
	}
	wantCount := fmt.Sprintf("server_request_seconds_count %d", len(obsd))
	if got := samples["server_request_seconds_count"]; len(got) != 1 || got[0] != wantCount {
		t.Fatalf("_count = %v, want %q", got, wantCount)
	}
	sumLine := samples["server_request_seconds_sum"][0]
	gotSum, _ := strconv.ParseFloat(sumLine[strings.LastIndexByte(sumLine, ' ')+1:], 64)
	if math.Abs(gotSum-sum) > 1e-9 {
		t.Fatalf("_sum = %v, want %v", gotSum, sum)
	}
	// Spot-check le semantics: both 0.003 samples land in le="0.005",
	// and the cumulative value also carries the 0.0004 sample below.
	for _, line := range buckets {
		if strings.HasPrefix(line, `server_request_seconds_bucket{le="0.005"} `) {
			if !strings.HasSuffix(line, " 3") {
				t.Fatalf("le=0.005 cumulative %q, want 3 (0.0004 + two 0.003)", line)
			}
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"server.request_seconds": "server_request_seconds",
		"sweep.plan_cache_hits":  "sweep_plan_cache_hits",
		"a-b c":                  "a_b_c",
		"9lives":                 "_9lives",
		"ok_name:sub":            "ok_name:sub",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromHandler(t *testing.T) {
	reg := New()
	reg.Counter("server.errors").Inc()
	srv := httptest.NewServer(reg.PromHandler())
	defer srv.Close()

	resp := httptest.NewRecorder()
	reg.PromHandler().ServeHTTP(resp, httptest.NewRequest("GET", "/metrics", nil))
	if resp.Code != 200 || resp.Header().Get("Content-Type") != PromContentType {
		t.Fatalf("GET: %d %q", resp.Code, resp.Header().Get("Content-Type"))
	}
	if !strings.Contains(resp.Body.String(), "server_errors 1") {
		t.Fatalf("body %q", resp.Body.String())
	}

	resp = httptest.NewRecorder()
	reg.PromHandler().ServeHTTP(resp, httptest.NewRequest("POST", "/metrics", nil))
	if resp.Code != 405 {
		t.Fatalf("POST: %d, want 405", resp.Code)
	}

	// A nil registry serves an empty but well-formed page.
	var nilReg *Registry
	resp = httptest.NewRecorder()
	nilReg.PromHandler().ServeHTTP(resp, httptest.NewRequest("GET", "/metrics", nil))
	if resp.Code != 200 || resp.Body.Len() != 0 {
		t.Fatalf("nil registry: %d %q", resp.Code, resp.Body.String())
	}
}

func TestPromFloat(t *testing.T) {
	if promFloat(math.Inf(1)) != "+Inf" || promFloat(math.Inf(-1)) != "-Inf" || promFloat(math.NaN()) != "NaN" {
		t.Fatal("special float rendering wrong")
	}
	if promFloat(0.25) != "0.25" {
		t.Fatalf("promFloat(0.25) = %q", promFloat(0.25))
	}
}
