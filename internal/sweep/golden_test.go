package sweep

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures from current output")

// TestTinycoreGoldenBlockMatrix pins the blocked kernel's arithmetic on
// a real design end to end: tinycore's multi-workload AVF matrix —
// per-sequential-node seqAVFs for every workload, plus each workload's
// full AVF-vector sum accumulated in vertex order — evaluated through
// the engine with a lane width that leaves a ragged tail block. Values
// are stored as hexadecimal float64 literals and compared bit for bit,
// so ANY change to the kernel arithmetic (summation order, saturation,
// the MIN broadcast) fails this test loudly; run with -update to bless
// an intentional change.
func TestTinycoreGoldenBlockMatrix(t *testing.T) {
	_, res, ws := tinycoreBatch(t, 6)
	// Block width 4 over 6 workloads: one full block and one ragged.
	eng := newWidth(Options{Workers: 1}, 4)
	batch, err := eng.Sweep(res, ws)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}

	got := make(map[string]string)
	for i, r := range batch.Results {
		name := batch.Names[i]
		for node, avf := range r.SeqAVFByNode() {
			got[name+"/"+node] = strconv.FormatFloat(avf, 'x', -1, 64)
		}
		sum := 0.0
		for _, avf := range r.AVF {
			sum += avf
		}
		got[name+"/__avfsum"] = strconv.FormatFloat(sum, 'x', -1, 64)
	}
	if len(got) == 0 {
		t.Fatal("no sequential nodes in tinycore batch")
	}

	path := filepath.Join("testdata", "tinycore_block_matrix.golden")
	if *updateGolden {
		writeBlockGolden(t, path, got)
		t.Logf("rewrote %s with %d entries", path, len(got))
	}
	want := readBlockGolden(t, path)
	if len(got) != len(want) {
		t.Errorf("matrix shape drifted: golden has %d entries, current run has %d", len(want), len(got))
	}
	for key, wv := range want {
		gv, ok := got[key]
		if !ok {
			t.Errorf("entry %s present in golden but missing from current run", key)
			continue
		}
		if gv != wv {
			gf, _ := strconv.ParseFloat(gv, 64)
			wf, _ := strconv.ParseFloat(wv, 64)
			t.Errorf("entry %s drifted: golden %s (%v), got %s (%v) — blocked kernel arithmetic changed; run with -update only if intentional",
				key, wv, wf, gv, gf)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("entry %s missing from golden (run with -update if intentional)", key)
		}
	}

	// The golden values must also be what the closed forms produce: the
	// fixture pins one arithmetic, shared bit for bit by the kernel and
	// Result.Reevaluate.
	for i, w := range ws {
		ref := reevaluated(t, res, w.Inputs)
		bitIdentical(t, "workload "+w.Name, batch.Results[i].AVF, ref.AVF)
	}
}

func writeBlockGolden(t *testing.T, path string, m map[string]string) {
	t.Helper()
	writeGoldenWithHeader(t, path, m,
		"# tinycore blocked-sweep AVF matrix: workload/node -> hexfloat seqAVF (exact bits)\n"+
			"# __avfsum is the workload's full AVF vector summed in vertex order\n"+
			"# regenerate: go test ./internal/sweep/ -run TestTinycoreGoldenBlockMatrix -update\n")
}

func writeGoldenWithHeader(t *testing.T, path string, m map[string]string, header string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(header)
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s %s\n", k, m[k])
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readBlockGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden fixture unreadable (run with -update to create): %v", err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("%s: bad hexfloat in %q: %v", path, sc.Text(), err)
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
