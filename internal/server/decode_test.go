package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/harden"
	"seqavf/internal/obs"
	"seqavf/internal/pavfio"
	"seqavf/internal/stats"
)

// referenceDecode decodes body with encoding/json alone: decodeJSON,
// which refuses unknown fields, or harden.ParseRequest.
func referenceDecode[R tableRequest](body []byte) (*R, error) {
	req := new(R)
	if h, ok := any(req).(*harden.Request); ok {
		p, err := harden.ParseRequest(body)
		if err != nil {
			return nil, errorf(http.StatusBadRequest, "%v", err)
		}
		*h = *p
		return req, nil
	}
	if err := decodeJSON(bytes.NewReader(body), req); err != nil {
		return nil, err
	}
	return req, nil
}

// statusText renders an error as the pipeline answers it.
func statusText(err error) string {
	if err == nil {
		return "ok"
	}
	var se *statusError
	if !errors.As(err, &se) {
		return "unclassified: " + err.Error()
	}
	return fmt.Sprintf("%d %s", se.status, err)
}

// checkDecode decodes body as request type R and holds the result to
// the reference decode: the same status and error text, or structs
// that are reflect.DeepEqual. Whenever the fast walk accepts body,
// encoding/json must accept it too, into the same struct. It returns
// how the body was decoded.
func checkDecode[R tableRequest](t *testing.T, body []byte) string {
	t.Helper()
	got, how, err := decodeRequest[R](bytes.NewReader(body), int64(len(body)))
	want, wantErr := referenceDecode[R](body)
	if g, w := statusText(err), statusText(wantErr); g != w {
		t.Fatalf("%T (%s): decodeRequest answered %q, reference %q\nbody: %q", want, how, g, w, body)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T (%s): decodeRequest gave\n%+v\nreference\n%+v\nbody: %q", want, how, got, want, body)
	}

	w := walker{b: body}
	walked := new(R)
	if w.request(walked) {
		if how != decodeFast {
			t.Fatalf("%T: the walk accepts but decodeRequest reports %q", walked, how)
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		plain := new(R)
		if err := dec.Decode(plain); err != nil {
			t.Fatalf("%T: the walk accepts what encoding/json refuses (%v)\nbody: %q", walked, err, body)
		}
		if !reflect.DeepEqual(walked, plain) {
			t.Fatalf("%T: the walk gave\n%+v\nencoding/json\n%+v\nbody: %q", walked, walked, plain, body)
		}
	} else if how != decodeFallback {
		t.Fatalf("%T: the walk declines but decodeRequest reports %q", walked, how)
	}
	return how
}

// fallbackBodies hold one sweep body per class of input the walk
// declines; each is a request encoding/json answers with 200 or a
// definite error. The tables are rendered by tab.
func fallbackBodies(tab string) map[string]string {
	q, _ := json.Marshal(tab)
	w := `[{"name":"w0","pavf":` + string(q) + `}]`
	return map[string]string{
		"cased key":        `{"Design":"alpha","workloads":` + w + `}`,
		"duplicate key":    `{"design":"beta","design":"alpha","workloads":` + w + `}`,
		"unicode escape":   `{"design":"alpha","workloads":[{"name":"w\u00e9","pavf":` + string(q) + `}]}`,
		"trailing garbage": `{"design":"alpha","workloads":` + w + `} garbage`,
		"null":             `{"design":"alpha","workloads":` + w + `,"nodes":null}`,
	}
}

// TestDecodeFastAndFallback: bodies shaped like the benchmark's take
// the fast walk on all three routes, and every class of input the walk
// declines is decoded by encoding/json instead — with the same outcome
// as encoding/json alone, counted by server.decode_fallbacks and
// marked decode=fallback on the ingest span.
func TestDecodeFastAndFallback(t *testing.T) {
	s, reg, results := newTestServer(t, Config{MaxBodyBytes: 64 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res := results["alpha"]

	nodes := SweepRequest{Design: "alpha", Nodes: true}
	hr := harden.Request{Design: "alpha", Budgets: []float64{64, 256, 1024, 4096}, Solver: "greedy", TopTerms: 16}
	for i := 0; i < 16; i++ {
		nodes.Workloads = append(nodes.Workloads, SweepWorkload{Name: fmt.Sprintf("w%02d", i), PAVF: pavfText(t, res, uint64(300+i))})
		hr.Workloads = append(hr.Workloads, harden.Workload{Name: fmt.Sprintf("h%02d", i), PAVF: pavfText(t, res, uint64(400+i))})
	}
	nodesBody, err := json.Marshal(nodes)
	if err != nil {
		t.Fatal(err)
	}
	fast := []struct{ url, body string }{
		{"/v1/sweep", string(sweepBody(t, "alpha", res, 64, 200))},
		{"/v1/sweep", string(nodesBody)},
		{"/v1/sweep/intervals", string(intervalBody(t, "alpha", res, 1, 32, 500, false))},
		{"/v1/harden", string(hardenBody(t, hr))},
	}
	for _, c := range fast {
		if resp, b := postJSON(t, http.DefaultClient, ts.URL+c.url, []byte(c.body)); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", c.url, resp.StatusCode, b)
		}
	}
	if got, want := ingestDecodes(reg), "fast fast fast fast"; got != want {
		t.Fatalf("ingest decode attributes %q, want %q", got, want)
	}
	if got := reg.Counter("server.decode_fallbacks").Load(); got != 0 {
		t.Fatalf("server.decode_fallbacks = %d after benchmark-shaped bodies, want 0", got)
	}
	checkDecode[SweepRequest](t, []byte(fast[0].body))
	checkDecode[SweepRequest](t, []byte(fast[1].body))
	checkDecode[IntervalSweepRequest](t, []byte(fast[2].body))
	checkDecode[harden.Request](t, []byte(fast[3].body))

	for name, body := range fallbackBodies(pavfText(t, res, 600)) {
		t.Run(name, func(t *testing.T) {
			if how := checkDecode[SweepRequest](t, []byte(body)); how != decodeFallback {
				t.Fatalf("decoded %s, want %s", how, decodeFallback)
			}
			before := reg.Counter("server.decode_fallbacks").Load()
			if resp, b := postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep", []byte(body)); resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, b)
			}
			if got := reg.Counter("server.decode_fallbacks").Load(); got != before+1 {
				t.Fatalf("server.decode_fallbacks = %d, want %d", got, before+1)
			}
			decodes := strings.Fields(ingestDecodes(reg))
			if last := decodes[len(decodes)-1]; last != decodeFallback {
				t.Fatalf("ingest decode = %q, want %q", last, decodeFallback)
			}
		})
	}
}

// ingestDecodes lists the decode attribute of every retained request's
// ingest span, in request order.
func ingestDecodes(reg *obs.Registry) string {
	var out []string
	for _, root := range reg.Snapshot().Spans {
		if root.Name != "server.request" {
			continue
		}
		if isp := findSpan(root, "ingest"); isp != nil {
			d, _ := isp.Attrs["decode"].(string)
			out = append(out, d)
		}
	}
	return strings.Join(out, " ")
}

// TestDecodeEdgeCases holds the walk to encoding/json on the inputs
// nearest its grammar's edges, for every request type.
func TestDecodeEdgeCases(t *testing.T) {
	for _, body := range decodeSeeds(t) {
		checkDecode[SweepRequest](t, body)
		checkDecode[IntervalSweepRequest](t, body)
		checkDecode[harden.Request](t, body)
	}
}

// decodeSeeds are real bodies of all three routes plus every class of
// input the walk declines or must get exactly right.
func decodeSeeds(t testing.TB) [][]byte {
	res := solvedDesign(t, 31)
	seeds := [][]byte{
		sweepBody(t, "alpha", res, 2, 10),
		intervalBody(t, "alpha", res, 2, 3, 20, true),
		hardenBody(t, harden.Request{Design: "alpha", Budgets: []float64{3, 9.5, 1e6}, Solver: "dp", TopTerms: 4,
			Workloads: []harden.Workload{{Name: "h0", PAVF: pavfText(t, res, 30)}}}),
	}
	for _, b := range fallbackBodies("R IQ.rd 0.5\n") {
		seeds = append(seeds, []byte(b))
	}
	for _, s := range []string{
		``, ` `, `{}`, `[]`, `null`, `{"design":null}`, "\ufeff{}", `{"design":"a"}`, ` {"design":"a"} `,
		`{"design":"a",}`, `{"design":"a" "nodes":true}`, `{"design":"a"`, `{"design":`, `{"design":"a}`,
		`{"design":"a\"b\\c\/d\b\f\n\r\t"}`, `{"design":"a\x"}`, `{"design":"aA"}`, "{\"design\":\"a\x01\"}",
		"{\"design\":\"\xff\"}", "{\"design\":\"caf\xc3\xa9\"}", "{\"design\":\"\xc3\"}", "{\"d\xc3\xa9sign\":\"a\"}",
		`{"design":"a","nodes":true}`, `{"design":"a","nodes":false}`, `{"design":"a","nodes":tru}`,
		`{"design":"a","nodes":truex}`, `{"design":"a","nodes":1}`, `{"design":"a","nodes":"true"}`,
		`{"design":"a","workloads":[]}`, `{"design":"a","workloads":[{}]}`, `{"design":"a","workloads":[{},]}`,
		`{"design":"a","workloads":[{"name":"w","pavf":"R X.r 0.5\n","name":"v"}]}`,
		`{"design":"a","workloads":[{"name":"w","table":"# window 0 0 1\nR X.r 0.5\n"}]}`,
		`{"design":"a","workloads":[{"Name":"w","pavf":"x"}]}`, `{"design":"a","workloads":{}}`,
		`{"design":"a","workloads":[{"name":"w","pavf":"x"}],"workloads":[]}`,
		`{"design":"a","budgets":[1]}`, `{"design":"a","budgets":[]}`, `{"design":"a","budgets":[1,]}`,
		`{"design":"a","budgets":[0]}`, `{"design":"a","budgets":[-0]}`, `{"design":"a","budgets":[-1]}`,
		`{"design":"a","budgets":[1e309]}`, `{"design":"a","budgets":[1E2,2.5e-1,3e+0]}`, `{"design":"a","budgets":[01]}`,
		`{"design":"a","budgets":[1.]}`, `{"design":"a","budgets":[.5]}`, `{"design":"a","budgets":[1e]}`,
		`{"design":"a","budgets":[+1]}`, `{"design":"a","budgets":[-]}`, `{"design":"a","budgets":[null]}`,
		`{"design":"a","budgets":["1"]}`, `{"design":"a","budgets":[1],"solver":"anneal"}`,
		`{"design":"a","budgets":[1],"top_terms":5}`, `{"design":"a","budgets":[1],"top_terms":5.0}`,
		`{"design":"a","budgets":[1],"top_terms":5e1}`, `{"design":"a","budgets":[1],"top_terms":-1}`,
		`{"design":"a","budgets":[1],"top_terms":99999999999999999999}`,
		`{"design":"a","budgets":[1],"costs":{"F/n":2}}`, `{"design":"a","budgets":[1],"costs":{}}`,
		`{"design":"a","budgets":[1]}]`, `{"design":"a","budgets":[1]}}`, `{"design":"a","budgets":[1]}{}`,
		`{"design":"a","budgets":[1],"workloads":[{"name":"","pavf":"x"}]}`,
		`{"design":"a","budgets":[1],"workloads":[{"name":"w","pavf":""}]}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzDecodeRequest: for every request type, decodeRequest answers any
// body exactly as encoding/json (plus harden's validation) does, and
// whenever the fast walk accepts a body encoding/json accepts it too,
// into a reflect.DeepEqual struct.
func FuzzDecodeRequest(f *testing.F) {
	for _, b := range decodeSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode[SweepRequest](t, body)
		checkDecode[IntervalSweepRequest](t, body)
		checkDecode[harden.Request](t, body)
	})
}

// benchTables renders n jittered pAVF tables over every port and
// structure of the XeonLike design the service benchmark sweeps.
func benchTables(b *testing.B, n int) []string {
	gen, err := design.Generate(design.DefaultConfig(2027))
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.New(7)
	out := make([]string, n)
	for i := range out {
		in := core.NewInputs()
		for sp := range gen.ReadSpecs {
			in.ReadPorts[sp] = rng.Float64()
		}
		for sp := range gen.WriteSpecs {
			in.WritePorts[sp] = rng.Float64()
		}
		for st := range gen.StructArch {
			in.StructAVF[st] = rng.Float64()
		}
		var sb strings.Builder
		if _, err := pavfio.Write(&sb, in); err != nil {
			b.Fatal(err)
		}
		out[i] = sb.String()
	}
	return out
}

// BenchmarkRequestDecode compares the request decoder's fast walk with
// the encoding/json decode it falls back to, on a 64-table /v1/sweep
// body and a 32-window /v1/sweep/intervals body over the XeonLike
// design's tables.
func BenchmarkRequestDecode(b *testing.B) {
	tables := benchTables(b, 64)
	sw := SweepRequest{Design: "xeonlike"}
	for i, tab := range tables {
		sw.Workloads = append(sw.Workloads, SweepWorkload{Name: fmt.Sprintf("w%02d", i), PAVF: tab})
	}
	var iv strings.Builder
	iv.WriteString("# workload phases\n")
	for w := 0; w < 32; w++ {
		fmt.Fprintf(&iv, "# window %d %d %d\n", w, w*1000, (w+1)*1000)
		iv.WriteString(tables[w])
	}
	in := IntervalSweepRequest{Design: "xeonlike", Workloads: []IntervalSweepWorkload{{Name: "phases", Table: iv.String()}}}
	bodies := []struct {
		name string
		v    any
	}{{"sweep64", sw}, {"intervals32", in}}
	for _, c := range bodies {
		body, err := json.Marshal(c.v)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/Fast", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var how string
				var err error
				if c.name == "sweep64" {
					_, how, err = decodeRequest[SweepRequest](bytes.NewReader(body), int64(len(body)))
				} else {
					_, how, err = decodeRequest[IntervalSweepRequest](bytes.NewReader(body), int64(len(body)))
				}
				if err != nil || how != decodeFast {
					b.Fatalf("decoded %s: %v", how, err)
				}
			}
		})
		b.Run(c.name+"/EncodingJSON", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if c.name == "sweep64" {
					err = decodeJSON(bytes.NewReader(body), new(SweepRequest))
				} else {
					err = decodeJSON(bytes.NewReader(body), new(IntervalSweepRequest))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFlightRecordsPinNoBodies: the flight recorder keeps every
// request's design name, so that name must not be a substring of the
// request's string arena — 64 retained records would pin 64 bodies.
func TestFlightRecordsPinNoBodies(t *testing.T) {
	s, _, results := newTestServer(t, Config{})
	h := s.Handler()
	// Comment lines pad each table to a few KB, as a large design's are.
	req := SweepRequest{Design: "alpha"}
	for i := 0; i < 32; i++ {
		req.Workloads = append(req.Workloads, SweepWorkload{Name: fmt.Sprintf("w%d", i),
			PAVF: "# " + strings.Repeat("padding ", 256) + "\n" + pavfText(t, results["alpha"], uint64(700+i))})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("sweep: %d %s", rec.Code, rec.Body.Bytes())
		}
	}
	serve()
	const requests = 64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		serve()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// Reading the recorder here also keeps it live through the GC above.
	if n := s.flight.Len(); n != requests+1 {
		t.Fatalf("flight recorder holds %d records, want %d", n, requests+1)
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d requests of %d B left %d B more live heap", requests, len(body), grown)
	if limit := int64(requests * len(body) / 4); grown > limit {
		t.Fatalf("%d requests left %d B more live heap, want under %d B: records pin request bodies", requests, grown, limit)
	}
}
