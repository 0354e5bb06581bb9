package artifact

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"seqavf/internal/core"
	"seqavf/internal/graph"
	"seqavf/internal/graph/graphtest"
	"seqavf/internal/obs"
	"seqavf/internal/stats"
	"seqavf/internal/sweep"
)

// buildSolved generates a seeded design, analyzes it, and solves it
// against seeded random inputs.
func buildSolved(t testing.TB, seed, inputSeed uint64) (*core.Analyzer, *core.Result, *core.Inputs) {
	t.Helper()
	d, err := graphtest.Generate(graphtest.Small(seed))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	a, err := core.NewAnalyzer(d.Graph, core.DefaultOptions())
	if err != nil {
		t.Fatalf("NewAnalyzer: %v", err)
	}
	in := seededInputs(a, inputSeed)
	res, err := a.Solve(in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return a, res, in
}

// freshAnalyzer rebuilds the analyzer for the same seed from scratch,
// standing in for a different process decoding the artifact.
func freshAnalyzer(t testing.TB, seed uint64) *core.Analyzer {
	t.Helper()
	d, err := graphtest.Generate(graphtest.Small(seed))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	a, err := core.NewAnalyzer(d.Graph, core.DefaultOptions())
	if err != nil {
		t.Fatalf("NewAnalyzer: %v", err)
	}
	return a
}

// seededInputs assigns deterministic pAVFs to every structure port.
func seededInputs(a *core.Analyzer, seed uint64) *core.Inputs {
	rng := stats.New(seed)
	in := core.NewInputs()
	sortPorts := func(sps []core.StructPort) {
		sort.Slice(sps, func(i, j int) bool {
			if sps[i].Struct != sps[j].Struct {
				return sps[i].Struct < sps[j].Struct
			}
			return sps[i].Port < sps[j].Port
		})
	}
	reads := a.ReadPortTerms()
	sortPorts(reads)
	for _, sp := range reads {
		in.ReadPorts[sp] = rng.Float64()
	}
	writes := a.WritePortTerms()
	sortPorts(writes)
	for _, sp := range writes {
		in.WritePorts[sp] = rng.Float64()
	}
	return in
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, res, _ := buildSolved(t, 7, 1001)
	data, err := Encode(res)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	a2 := freshAnalyzer(t, 7)
	got, plan, err := Decode(data, a2)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if plan == nil {
		t.Fatal("Decode returned nil plan")
	}
	if len(got.AVF) != len(res.AVF) {
		t.Fatalf("decoded %d AVFs, want %d", len(got.AVF), len(res.AVF))
	}
	for v := range res.AVF {
		if got.AVF[v] != res.AVF[v] {
			t.Fatalf("vertex %d: decoded AVF %v != original %v", v, got.AVF[v], res.AVF[v])
		}
	}
	for v := range res.Visited {
		if got.Visited[v] != res.Visited[v] {
			t.Fatalf("vertex %d: decoded visited %v != original %v", v, got.Visited[v], res.Visited[v])
		}
	}
	if got.Iterations != res.Iterations || got.Converged != res.Converged {
		t.Fatalf("metadata drift: got (%d,%v), want (%d,%v)",
			got.Iterations, got.Converged, res.Iterations, res.Converged)
	}
	for v := range res.AVF {
		id := graph.VertexID(v)
		if got.Equation(id) != res.Equation(id) {
			t.Fatalf("vertex %d equation drift:\n got %s\nwant %s", v, got.Equation(id), res.Equation(id))
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	_, res, _ := buildSolved(t, 13, 5)
	a, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("two encodes of the same result differ byte-wise")
	}
}

func TestDecodeVersionGate(t *testing.T) {
	_, res, _ := buildSolved(t, 3, 9)
	data, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	// The version field sits right after the 8-byte magic.
	binary.LittleEndian.PutUint32(data[8:], FormatVersion+1)
	_, _, err = Decode(data, res.Analyzer)
	if !errors.Is(err, ErrFormatVersion) {
		t.Fatalf("future-version artifact: got %v, want ErrFormatVersion", err)
	}
}

func TestDecodeFingerprintGate(t *testing.T) {
	_, res, _ := buildSolved(t, 4, 9)
	data, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	other := freshAnalyzer(t, 5)
	_, _, err = Decode(data, other)
	if !errors.Is(err, ErrFingerprint) {
		t.Fatalf("cross-design decode: got %v, want ErrFingerprint", err)
	}
}

func TestDecodeCorruptionDetected(t *testing.T) {
	_, res, _ := buildSolved(t, 6, 11)
	data, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in every section region; CRC32C must catch
	// each. Skip the 24-byte header (magic+version+fingerprint+count):
	// header damage is reported as corrupt magic/fingerprint instead.
	for _, off := range []int{30, len(data) / 2, len(data) - 2} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if _, _, err := Decode(mut, res.Analyzer); err == nil {
			t.Fatalf("flipping byte %d went undetected", off)
		}
	}
	// Truncations at every boundary class must error, not panic.
	for _, n := range []int{0, 4, 8, 23, 24, 40, len(data) - 1} {
		if n > len(data) {
			continue
		}
		if _, _, err := Decode(data[:n], res.Analyzer); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

func TestStoreGetPutMissHit(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	st, err := Open(dir, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	a, res, in := buildSolved(t, 21, 77)

	if got, plan, err := st.Get(a); err != nil || got != nil || plan != nil {
		t.Fatalf("empty store Get = (%v, %v, %v), want clean miss", got, plan, err)
	}
	if err := st.Put(res); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d artifacts, want 1", st.Len())
	}
	got, plan, err := st.Get(freshAnalyzer(t, 21))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got == nil || plan == nil {
		t.Fatal("Get missed after Put")
	}
	if err := got.Reevaluate(in); err != nil {
		t.Fatalf("Reevaluate on stored result: %v", err)
	}
	for v := range res.AVF {
		if got.AVF[v] != res.AVF[v] {
			t.Fatalf("vertex %d: stored AVF %v != original %v", v, got.AVF[v], res.AVF[v])
		}
	}
	// A different design's analyzer must miss, not decode this entry.
	if got, _, err := st.Get(freshAnalyzer(t, 22)); err != nil || got != nil {
		t.Fatalf("cross-design Get = (%v, %v), want clean miss", got, err)
	}
	// No staging temp files may survive a completed Put.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Fatalf("staging files left behind: %v", tmps)
	}
	for name, want := range map[string]int64{
		"artifact.store_misses": 2, "artifact.store_puts": 1, "artifact.store_hits": 1,
	} {
		if got := reg.Counter(name).Load(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.FixedHistogram("artifact.restore_seconds", obs.LatencyBuckets).Count(); got != 1 {
		t.Errorf("artifact.restore_seconds count = %d, want 1 (the hit)", got)
	}
}

func TestStoreRefusesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, res, _ := buildSolved(t, 30, 1)
	if err := st.Put(res); err != nil {
		t.Fatal(err)
	}
	arts, err := filepath.Glob(filepath.Join(dir, "*.sart"))
	if err != nil || len(arts) != 1 {
		t.Fatalf("glob *.sart: %v (%d entries)", err, len(arts))
	}
	path := arts[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Get(a); err == nil {
		t.Fatal("corrupted store entry served without error")
	}
	// Regeneration path: Put overwrites the bad entry and Get recovers.
	if err := st.Put(res); err != nil {
		t.Fatal(err)
	}
	if got, _, err := st.Get(a); err != nil || got == nil {
		t.Fatalf("Get after regenerating = (%v, %v), want hit", got, err)
	}
}

func TestStoreEviction(t *testing.T) {
	dir := t.TempDir()
	// Size one artifact first so the bound admits roughly two.
	a0, res0, _ := buildSolved(t, 40, 1)
	probe, err := Encode(res0)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	st, err := Open(dir, Options{MaxBytes: int64(len(probe)) * 5 / 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(res0); err != nil {
		t.Fatal(err)
	}
	// Make res0 strictly older than the entries that follow.
	old := filepath.Join(dir, ents1(t, dir)[0])
	past := osStatMtime(t, old).Add(-1e9)
	if err := os.Chtimes(old, past, past); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(41); seed <= 43; seed++ {
		_, res, _ := buildSolved(t, seed, 1)
		if err := st.Put(res); err != nil {
			t.Fatal(err)
		}
	}
	if st.opts.MaxBytes > 0 && st.SizeBytes() > 4*st.opts.MaxBytes {
		t.Fatalf("store grew to %d bytes against bound %d", st.SizeBytes(), st.opts.MaxBytes)
	}
	if st.Len() >= 4 {
		t.Fatalf("no eviction happened: %d artifacts for bound %d bytes", st.Len(), st.opts.MaxBytes)
	}
	if got := reg.Counter("artifact.evictions").Load(); got != int64(4-st.Len()) {
		t.Fatalf("artifact.evictions = %d, want %d (4 puts, %d left)", got, 4-st.Len(), st.Len())
	}
	// The oldest (first) entry is the one evicted.
	if got, _, err := st.Get(a0); err != nil || got != nil {
		t.Fatalf("LRU entry survived eviction: (%v, %v)", got, err)
	}
}

func ents1(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

func osStatMtime(t *testing.T, path string) time.Time {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.ModTime()
}

// EngineSecondLevel: a sweep engine with a fresh in-memory LRU must
// serve its plan from the disk store and the served plan must sweep
// bit-identically to a freshly compiled one.
func TestEngineSecondLevelStore(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, res, in := buildSolved(t, 50, 3)
	if err := st.Put(res); err != nil {
		t.Fatal(err)
	}

	cold := sweep.New(sweep.Options{Workers: 1})
	warm := sweep.New(sweep.Options{Workers: 1, Store: st})
	in2 := seededInputs(a, 999)
	ws := []sweep.Workload{{Name: "w1", Inputs: in}, {Name: "w2", Inputs: in2}}
	bc, err := cold.Sweep(res, ws)
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	bw, err := warm.Sweep(res, ws)
	if err != nil {
		t.Fatalf("warm sweep: %v", err)
	}
	for i := range ws {
		for v := range bc.Results[i].AVF {
			if bc.Results[i].AVF[v] != bw.Results[i].AVF[v] {
				t.Fatalf("workload %d vertex %d: store-served plan %v != compiled plan %v",
					i, v, bw.Results[i].AVF[v], bc.Results[i].AVF[v])
			}
		}
	}
	if warm.CachedPlans() != 1 {
		t.Fatalf("store-served plan not promoted into the memory LRU (%d cached)", warm.CachedPlans())
	}
}

// A compile through an engine wired to a store must persist the plan so
// the next engine (fresh process) starts warm.
func TestEnginePersistsCompiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, res, in := buildSolved(t, 51, 3)
	eng := sweep.New(sweep.Options{Workers: 1, Store: st})
	if _, err := eng.Sweep(res, []sweep.Workload{{Name: "w", Inputs: in}}); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("engine compile not persisted: store holds %d artifacts", st.Len())
	}
}
