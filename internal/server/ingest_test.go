package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/pavfio"
	"seqavf/internal/sweep"
)

// flopEdit returns d's netlist with one fresh flop named name added to
// FUB f's module, registering the module's first eligible signal. d is
// left as it was.
func flopEdit(t testing.TB, d *netlist.Design, f int, name string) []byte {
	t.Helper()
	mod := d.Modules[d.Fubs[f].Module]
	var src *netlist.Node
	for _, n := range mod.Nodes {
		if (n.Kind == netlist.KindComb || n.Kind == netlist.KindSeq) && n.Class != netlist.ClassDebug {
			src = n
			break
		}
	}
	if src == nil {
		t.Fatalf("module %s has no eligible source node", mod.Name)
	}
	mod.Nodes = append(mod.Nodes, &netlist.Node{
		Name: name, Kind: netlist.KindSeq, Width: src.Width, Inputs: []string{src.Name},
	})
	var out bytes.Buffer
	err := netlist.Write(&out, d)
	mod.Nodes = mod.Nodes[:len(mod.Nodes)-1]
	if err != nil {
		t.Fatalf("netlist.Write: %v", err)
	}
	return out.Bytes()
}

// generatedNetlist renders a generated design of the given FUB count.
func generatedNetlist(t testing.TB, seed uint64, fubs int) (*netlist.Design, []byte) {
	t.Helper()
	cfg := design.DefaultConfig(seed)
	cfg.NumFubs = fubs
	gen, err := design.Generate(cfg)
	if err != nil {
		t.Fatalf("design.Generate: %v", err)
	}
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		t.Fatalf("netlist.Write: %v", err)
	}
	return gen.Design, nl.Bytes()
}

// requestSpan returns the retained root span of the last request to
// endpoint.
func requestSpan(t *testing.T, reg *obs.Registry, endpoint string) obs.SpanSnapshot {
	t.Helper()
	spans := reg.Snapshot().Spans
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Name == "server.request" && spans[i].Attrs["endpoint"] == endpoint {
			return spans[i]
		}
	}
	t.Fatalf("no request span for %s", endpoint)
	return obs.SpanSnapshot{}
}

// childSpan returns sp's child named name.
func childSpan(t *testing.T, sp obs.SpanSnapshot, name string) obs.SpanSnapshot {
	t.Helper()
	for _, c := range sp.Children {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("span %s has no %q child", sp.Name, name)
	return obs.SpanSnapshot{}
}

// TestEditRecordsAnalyze: uploads and edits open an "analyze" span
// under the request span that counts the FUBs whose ingest was reused
// and rebuilt, the flight record times it as its own stage within the
// request's wall time, and server.ingest_fubs_reused sums the reuse.
func TestEditRecordsAnalyze(t *testing.T) {
	s, reg, _ := newTestServer(t, Config{MaxBodyBytes: 64 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	d, nl := generatedNetlist(t, 7, 4)

	resp, b := postJSON(t, http.DefaultClient, ts.URL+"/v1/designs", nl)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload returned %d: %s", resp.StatusCode, b)
	}
	up := childSpan(t, requestSpan(t, reg, "/v1/designs"), "analyze")
	if up.Attrs["fubs_reused"] != 0 || up.Attrs["fubs_rebuilt"] != 4 {
		t.Fatalf("upload analyze attrs %v, want 0 reused and 4 rebuilt", up.Attrs)
	}

	resp, b = postJSON(t, http.DefaultClient, ts.URL+"/v1/designs/"+d.Name+"/edit", flopEdit(t, d, 0, "eco_q"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edit returned %d: %s", resp.StatusCode, b)
	}
	ed := childSpan(t, requestSpan(t, reg, "/v1/designs/{name}/edit"), "analyze")
	if ed.Attrs["fubs_reused"] != 3 || ed.Attrs["fubs_rebuilt"] != 1 {
		t.Fatalf("edit analyze attrs %v, want 3 reused and 1 rebuilt", ed.Attrs)
	}
	if got := reg.Counter("server.ingest_fubs_reused").Load(); got != 3 {
		t.Fatalf("server.ingest_fubs_reused = %d, want 3", got)
	}

	// The record lands once the handler returns, which may be just after
	// the client has the response.
	deadline := time.Now().Add(5 * time.Second)
	for s.flight.Len() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rec := s.flight.Snapshot()[0]
	if rec.Endpoint != "/v1/designs/{name}/edit" {
		t.Fatalf("last flight record is for %s", rec.Endpoint)
	}
	if rec.AnalyzeSeconds <= 0 {
		t.Fatalf("analyze_seconds = %v, want > 0", rec.AnalyzeSeconds)
	}
	sum := rec.IngestSeconds + rec.AnalyzeSeconds + rec.PlanSeconds + rec.EvalSeconds + rec.EncodeSeconds
	if sum > rec.DurationSeconds {
		t.Fatalf("stages sum to %v s, more than the request's %v s", sum, rec.DurationSeconds)
	}
	var raw map[string]any
	line, err := json.Marshal(rec)
	if err != nil || json.Unmarshal(line, &raw) != nil {
		t.Fatalf("flight record does not round-trip: %v", err)
	}
	if _, ok := raw["analyze_seconds"]; !ok {
		t.Fatalf("flight record JSON %s has no analyze_seconds", line)
	}
}

// TestEditChainMatchesColdIngest: a chain of edits, each ingested from
// the version before it, registers exactly what a cold upload of the
// same text registers: fingerprint, per-FUB fingerprints, plan shape
// and bit-identical AVFs. Edits that touch the same FUB twice, move
// between FUBs and revert to the base text all reuse from their live
// version.
func TestEditChainMatchesColdIngest(t *testing.T) {
	s, reg, _ := newTestServer(t, Config{})
	d, nl := generatedNetlist(t, 11, 5)
	live, err := s.LoadNetlist("", bytes.NewReader(nl), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	steps := [][]byte{
		flopEdit(t, d, 2, "eco_a"),
		flopEdit(t, d, 2, "eco_b"),
		flopEdit(t, d, 4, "eco_c"),
		nl,
	}
	reusedBefore := reg.Counter("server.ingest_fubs_reused").Load()
	for i, text := range steps {
		next, _, err := s.EditNetlistContext(context.Background(), live, bytes.NewReader(text), core.DefaultOptions())
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		cold := New(Config{Obs: obs.New(), Sweep: sweep.Options{Workers: 1}})
		want, err := cold.LoadNetlist("", bytes.NewReader(text), core.DefaultOptions())
		if err != nil {
			t.Fatalf("edit %d: cold upload: %v", i, err)
		}
		got := next.Result
		if got.Analyzer.Fingerprint() != want.Result.Analyzer.Fingerprint() ||
			!reflect.DeepEqual(got.Analyzer.FubFingerprints(), want.Result.Analyzer.FubFingerprints()) {
			t.Fatalf("edit %d: fingerprints differ from a cold ingest", i)
		}
		if next.info() != want.info() {
			t.Fatalf("edit %d: design info %+v, cold %+v", i, next.info(), want.info())
		}
		for v, x := range want.Result.AVF {
			if math.Float64bits(got.AVF[v]) != math.Float64bits(x) {
				t.Fatalf("edit %d: vertex %d AVF %v, cold %v", i, v, got.AVF[v], x)
			}
		}
		live = next
	}
	// Each edit rebuilds the one or two FUBs whose module text changed
	// since the live version; the other FUBs of the five are reused.
	if got, want := reg.Counter("server.ingest_fubs_reused").Load()-reusedBefore, int64(4+4+3+4); got != want {
		t.Fatalf("edits reused %d FUBs, want %d", got, want)
	}
}

// TestConcurrentEditsMatchSerial runs two edits of one live design at
// once, each from that version, while sweeps evaluate it, and checks
// that every response and the design left registered equal a serial
// run's. Versions share parsed modules, flat FUBs and graph rows, so
// under -race this catches any write to state a published version
// holds. The live version leaves one FUB unconnected and each edit
// connects it, so both edits are the first to look up that FUB's ports
// (which a lazily built name index would write).
func TestConcurrentEditsMatchSerial(t *testing.T) {
	d, _ := generatedNetlist(t, 5, 4)
	degree := make(map[string]int)
	for _, c := range d.Connects {
		degree[c.From.Fub]++
		degree[c.To.Fub]++
	}
	lone := d.Fubs[0].Name
	for _, f := range d.Fubs {
		if degree[f.Name] > degree[lone] {
			lone = f.Name
		}
	}
	var kept, cut []netlist.Connect
	for _, c := range d.Connects {
		if c.From.Fub == lone || c.To.Fub == lone {
			cut = append(cut, c)
		} else {
			kept = append(kept, c)
		}
	}
	if len(cut) < 2 {
		t.Fatalf("FUB %s has %d connects, want at least 2", lone, len(cut))
	}
	render := func(conns ...netlist.Connect) []byte {
		d.Connects = append(append([]netlist.Connect(nil), kept...), conns...)
		var out bytes.Buffer
		if err := netlist.Write(&out, d); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	nl := render()
	edits := [][]byte{render(cut[0]), render(cut[1])}

	type outcome struct {
		info  DesignInfo
		inc   *core.Incremental
		fp    uint64
		avf   []float64
		sweep *SweepResponse
	}
	run := func(concurrent bool) (*Server, []outcome, []*Design) {
		s := New(Config{Obs: obs.New(), Sweep: sweep.Options{Workers: 1}})
		old, err := s.LoadNetlist("", bytes.NewReader(nl), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ws := make([]sweep.Workload, 4)
		for i := range ws {
			in, err := pavfio.Parse("w", strings.NewReader(pavfText(t, old.Result, uint64(60+i))))
			if err != nil {
				t.Fatal(err)
			}
			ws[i] = sweep.Workload{Name: fmt.Sprintf("w%d", i), Inputs: in}
		}
		outs := make([]outcome, len(edits)+len(ws))
		designs := make([]*Design, len(edits))
		errs := make([]error, len(outs))
		var wg sync.WaitGroup
		do := func(i int, f func()) {
			if !concurrent {
				f()
				return
			}
			wg.Add(1)
			go func() { defer wg.Done(); f() }()
		}
		for i, text := range edits {
			do(i, func() {
				nd, inc, err := s.EditNetlistContext(context.Background(), old, bytes.NewReader(text), core.DefaultOptions())
				if err != nil {
					errs[i] = err
					return
				}
				designs[i] = nd
				outs[i] = outcome{info: nd.info(), inc: inc, fp: nd.Result.Analyzer.Fingerprint(), avf: nd.Result.AVF}
			})
		}
		for i := range ws {
			k := len(edits) + i
			do(k, func() {
				rep, err := s.eng.Report(context.Background(), old.Result, old.Name, ws[i:i+1], true)
				if err != nil {
					errs[k] = err
					return
				}
				rep.ElapsedMS, rep.PerSec = 0, 0
				outs[k] = outcome{sweep: rep}
			})
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		return s, outs, designs
	}
	_, serial, _ := run(false)
	s, got, designs := run(true)
	for i := range serial {
		if !reflect.DeepEqual(got[i], serial[i]) {
			t.Fatalf("op %d: concurrent outcome %+v, serial %+v", i, got[i], serial[i])
		}
	}
	final := s.Design(designs[0].Name)
	k := -1
	for i, nd := range designs {
		if final == nd {
			k = i
		}
	}
	if k < 0 {
		t.Fatal("the registered design is neither edit's result")
	}
	if final.info() != serial[k].info || final.Result.Analyzer.Fingerprint() != serial[k].fp {
		t.Fatalf("registered design %+v differs from edit %d's serial result %+v", final.info(), k, serial[k].info)
	}
}
