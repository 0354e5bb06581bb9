package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seqavf/internal/artifact"
	"seqavf/internal/core"
	"seqavf/internal/design"
	"seqavf/internal/netlist"
	"seqavf/internal/obs"
	"seqavf/internal/sweep"
)

// genNetlist renders one generated design as netlist text.
func genNetlist(t *testing.T, seed uint64) (string, string) {
	t.Helper()
	cfg := design.DefaultConfig(seed)
	cfg.NumFubs = 4
	gen, err := design.Generate(cfg)
	if err != nil {
		t.Fatalf("design.Generate: %v", err)
	}
	var nl bytes.Buffer
	if err := netlist.Write(&nl, gen.Design); err != nil {
		t.Fatalf("netlist.Write: %v", err)
	}
	return nl.String(), gen.Design.Name
}

// TestLoadNetlistWarmStart simulates a daemon restart: the first server
// solves a design cold and persists it; a second server sharing the same
// artifact directory must register the same design without solving —
// with bit-identical AVFs — and still serve sweeps from it.
func TestLoadNetlistWarmStart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifacts")
	nl, name := genNetlist(t, 7)

	load := func(reg *obs.Registry) (*Server, *Design) {
		st, err := artifact.Open(dir, artifact.Options{Obs: reg})
		if err != nil {
			t.Fatalf("artifact.Open: %v", err)
		}
		s := New(Config{Obs: reg, Artifacts: st, Sweep: sweep.Options{Workers: 1}})
		d, err := s.LoadNetlist("", strings.NewReader(nl), core.DefaultOptions())
		if err != nil {
			t.Fatalf("LoadNetlist: %v", err)
		}
		return s, d
	}

	reg1 := obs.New()
	_, cold := load(reg1)
	if got := reg1.Counter("artifact.cold_start").Load(); got != 1 {
		t.Fatalf("first load: cold_start = %d, want 1", got)
	}
	if got := reg1.Counter("artifact.warm_start").Load(); got != 0 {
		t.Fatalf("first load: warm_start = %d, want 0", got)
	}

	reg2 := obs.New()
	s2, warm := load(reg2)
	if got := reg2.Counter("artifact.warm_start").Load(); got != 1 {
		t.Fatalf("second load: warm_start = %d, want 1", got)
	}
	if got := reg2.Counter("artifact.cold_start").Load(); got != 0 {
		t.Fatalf("second load: cold_start = %d, want 0", got)
	}
	// One read of the artifact restores the result and the plan: the
	// plan is installed, not fetched from the store a second time.
	if got := reg2.Counter("artifact.store_hits").Load(); got != 1 {
		t.Fatalf("second load: artifact.store_hits = %d, want 1", got)
	}
	if warm.Name != name || warm.Name != cold.Name {
		t.Fatalf("warm-started design named %q, cold %q, want %q", warm.Name, cold.Name, name)
	}
	for v := range cold.Result.AVF {
		if warm.Result.AVF[v] != cold.Result.AVF[v] {
			t.Fatalf("vertex %d: warm AVF %v != cold AVF %v", v, warm.Result.AVF[v], cold.Result.AVF[v])
		}
	}

	// The warm-started design must serve sweeps end to end.
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	body := sweepBody(t, name, warm.Result, 2, 900)
	resp, b := postJSON(t, http.DefaultClient, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep of warm-started design returned %d: %s", resp.StatusCode, b)
	}
	if recs := s2.flight.Snapshot(); len(recs) != 1 || recs[0].PlanSource != "cache" {
		t.Fatalf("first sweep after a warm load: flight records %+v, want one with plan source cache", recs)
	}

	// A corrupt artifact is counted and solved around: the third load
	// solves cold, to the same bits.
	arts, err := filepath.Glob(filepath.Join(dir, "*.sart"))
	if err != nil || len(arts) != 1 {
		t.Fatalf("glob *.sart: %v (%d entries)", err, len(arts))
	}
	data, err := os.ReadFile(arts[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(arts[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	reg3 := obs.New()
	_, healed := load(reg3)
	if got := reg3.Counter("server.artifact_errors").Load(); got != 1 {
		t.Fatalf("corrupt artifact: server.artifact_errors = %d, want 1", got)
	}
	if got := reg3.Counter("artifact.cold_start").Load(); got != 1 {
		t.Fatalf("corrupt artifact: cold_start = %d, want 1", got)
	}
	for v := range cold.Result.AVF {
		if healed.Result.AVF[v] != cold.Result.AVF[v] {
			t.Fatalf("vertex %d: AVF after corrupt artifact %v != cold AVF %v", v, healed.Result.AVF[v], cold.Result.AVF[v])
		}
	}
}

// TestDuplicateDesignErrorType pins the typed duplicate error so callers
// (seqavfd's startup loop) can distinguish a name collision from a solve
// failure and report both sources.
func TestDuplicateDesignErrorType(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	res := solvedDesign(t, 77)
	if _, err := s.AddResult("alpha", res); err == nil {
		t.Fatal("duplicate AddResult succeeded")
	} else {
		var dup *DuplicateDesignError
		if !errors.As(err, &dup) {
			t.Fatalf("duplicate AddResult error %T (%v), want *DuplicateDesignError", err, err)
		}
		if dup.Name != "alpha" {
			t.Fatalf("DuplicateDesignError.Name = %q, want alpha", dup.Name)
		}
	}
}

// TestLoadNetlistOldFormatArtifact is the state a deployed store is in
// after a FormatVersion bump: the design's artifact, with its head
// pointer, was written by the previous format. An upload must count one
// decode error, solve cold to the bits a store-less solve gives, and
// overwrite the artifact in the current format.
func TestLoadNetlistOldFormatArtifact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifacts")
	nl, _ := genNetlist(t, 7)
	load := func(reg *obs.Registry) *Design {
		st, err := artifact.Open(dir, artifact.Options{Obs: reg})
		if err != nil {
			t.Fatalf("artifact.Open: %v", err)
		}
		s := New(Config{Obs: reg, Artifacts: st, Sweep: sweep.Options{Workers: 1}})
		d, err := s.LoadNetlist("", strings.NewReader(nl), core.DefaultOptions())
		if err != nil {
			t.Fatalf("LoadNetlist: %v", err)
		}
		return d
	}
	d := load(obs.New())

	// Downgrade the version word, which follows the 8-byte magic. Only
	// the sections carry checksums, so nothing else needs rewriting.
	fp := d.fingerprint()
	path := filepath.Join(dir, fp+".sart")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:], artifact.FormatVersion-1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	heads, err := filepath.Glob(filepath.Join(dir, "*.head"))
	if err != nil || len(heads) != 1 {
		t.Fatalf("glob *.head: %v (%d entries)", err, len(heads))
	}
	if head, err := os.ReadFile(heads[0]); err != nil || strings.TrimSpace(string(head)) != fp {
		t.Fatalf("head pointer reads %q (%v), want the artifact %s", head, err, fp)
	}

	reg := obs.New()
	healed := load(reg)
	for name, want := range map[string]int64{
		"artifact.decode_errors": 1,
		"server.artifact_errors": 1,
		"artifact.cold_start":    1,
		"artifact.warm_start":    0,
	} {
		if got := reg.Counter(name).Load(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	want := coldSolve(t, []byte(nl))
	if len(healed.Result.AVF) != len(want.AVF) {
		t.Fatalf("%d AVFs, store-less solve %d", len(healed.Result.AVF), len(want.AVF))
	}
	for v, x := range want.AVF {
		if math.Float64bits(healed.Result.AVF[v]) != math.Float64bits(x) {
			t.Fatalf("vertex %d: AVF %v, store-less solve %v", v, healed.Result.AVF[v], x)
		}
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != artifact.FormatVersion {
		t.Fatalf("artifact left at version %d, want it rewritten at %d", v, artifact.FormatVersion)
	}
}
