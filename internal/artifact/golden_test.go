package artifact

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/tinycore"
	"seqavf/internal/uarch"
	"seqavf/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden artifact fixture from current output")

// tinycoreSolved produces the canonical small end-to-end artifact
// source: tinycore running the MD5-like kernel, measured on the uarch
// performance model — the same pipeline the experiments' seqAVF golden
// pins.
func tinycoreSolved(t *testing.T) (*core.Analyzer, *core.Result) {
	t.Helper()
	p := workload.MD5Like(60)
	fd, err := tinycore.FlatDesign(len(p.Code))
	if err != nil {
		t.Fatalf("FlatDesign: %v", err)
	}
	g, err := graph.Build(fd)
	if err != nil {
		t.Fatalf("graph.Build: %v", err)
	}
	a, err := core.NewAnalyzer(g, core.DefaultOptions())
	if err != nil {
		t.Fatalf("NewAnalyzer: %v", err)
	}
	perf, err := uarch.Run(p, uarch.DefaultConfig())
	if err != nil {
		t.Fatalf("uarch.Run: %v", err)
	}
	in, err := tinycore.BindInputs(perf.Report)
	if err != nil {
		t.Fatalf("BindInputs: %v", err)
	}
	res, err := a.Solve(in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return a, res
}

// TestGoldenArtifactBytes pins the exact on-disk bytes of a tinycore
// artifact. An intentional format change must bump FormatVersion and
// regenerate with -update; an accidental byte-layout change without a
// version bump fails here instead of silently corrupting stores in the
// field (old processes would misparse new bytes under the same
// version).
func TestGoldenArtifactBytes(t *testing.T) {
	a, res := tinycoreSolved(t)
	got, err := Encode(res)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	path := filepath.Join("testdata", "tinycore_md5.sart")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden artifact unreadable (regenerate: go test ./internal/artifact/ -run TestGoldenArtifactBytes -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("artifact bytes changed (%d bytes now, golden %d): if the format changed, "+
			"bump artifact.FormatVersion and regenerate with -update; if it did not, "+
			"this is an accidental encoding change that would corrupt deployed stores",
			len(got), len(want))
	}

	// The committed fixture must also still decode bit-identically — the
	// compatibility direction: artifacts written by the version that
	// committed the fixture remain readable by the current build.
	dec, plan, err := Decode(want, a)
	if err != nil {
		t.Fatalf("decoding golden artifact: %v", err)
	}
	if plan == nil {
		t.Fatal("golden artifact decoded without a plan")
	}
	for v := range res.AVF {
		if dec.AVF[v] != res.AVF[v] {
			t.Fatalf("vertex %d: golden-decoded AVF %v != fresh solve %v", v, dec.AVF[v], res.AVF[v])
		}
	}
}
