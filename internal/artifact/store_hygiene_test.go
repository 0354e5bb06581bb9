package artifact

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"seqavf/internal/obs"
)

func globCount(t *testing.T, dir, pattern string) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

// Evicting an artifact must also remove the head pointers naming it:
// before this fix, .head files leaked forever (eviction only considered
// .sart files) and a bounded store's real disk usage grew without
// bound on any workload that kept Putting fresh designs.
func TestEvictionSweepsHeads(t *testing.T) {
	dir := t.TempDir()
	_, res0, _ := buildSolved(t, 70, 1)
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
	// Age the first entry so it is the LRU victim.
	arts, _ := filepath.Glob(filepath.Join(dir, "*"+ext))
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(arts[0], past, past); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(71); seed <= 74; seed++ {
		_, res, _ := buildSolved(t, seed, 1)
		if err := st.Put(res); err != nil {
			t.Fatal(err)
		}
	}
	sarts, heads := globCount(t, dir, "*"+ext), globCount(t, dir, "*"+headExt)
	if sarts >= 5 {
		t.Fatalf("no eviction happened: %d artifacts", sarts)
	}
	// Every surviving head must name a surviving artifact, and evicted
	// artifacts' heads must be gone: with one head per design, heads
	// cannot outnumber artifacts.
	if heads > sarts {
		t.Fatalf("%d head pointers for %d artifacts: evicted artifacts leaked their heads", heads, sarts)
	}
	if reg.Counter("artifact.head_evictions").Load() == 0 {
		t.Fatal("eviction removed artifacts but counted no head evictions")
	}
	for _, head := range globList(t, dir, "*"+headExt) {
		data, err := os.ReadFile(head)
		if err != nil {
			t.Fatal(err)
		}
		fp, ok := parseHead(data)
		if !ok {
			t.Fatalf("surviving head %s is malformed: %q", head, data)
		}
		if _, err := os.Stat(st.path(fp)); err != nil {
			t.Fatalf("surviving head %s dangles: %v", head, err)
		}
	}
}

func globList(t *testing.T, dir, pattern string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Orphaned heads — pointers left by artifacts deleted out from under
// the store — are swept by the next eviction pass.
func TestEvictionSweepsOrphanHeads(t *testing.T) {
	dir := t.TempDir()
	_, res, _ := buildSolved(t, 75, 1)
	probe, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{MaxBytes: int64(len(probe)) * 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(res); err != nil {
		t.Fatal(err)
	}
	// Orphan the head: delete its artifact directly, and drop in a
	// corrupt head that parses to nothing.
	for _, p := range globList(t, dir, "*"+ext) {
		os.Remove(p)
	}
	if err := os.WriteFile(filepath.Join(dir, "feedfacefeedface"+headExt), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if globCount(t, dir, "*"+headExt) != 2 {
		t.Fatal("test setup: want 2 head files")
	}
	// Any Put triggers the sweep.
	_, res2, _ := buildSolved(t, 76, 1)
	if err := st.Put(res2); err != nil {
		t.Fatal(err)
	}
	for _, head := range globList(t, dir, "*"+headExt) {
		data, err := os.ReadFile(head)
		if err != nil {
			t.Fatal(err)
		}
		fp, ok := parseHead(data)
		if !ok {
			t.Fatalf("head %s survived the sweep though malformed", head)
		}
		if _, err := os.Stat(st.path(fp)); err != nil {
			t.Fatalf("orphan head %s survived the sweep", head)
		}
	}
}

// SizeBytes must report what eviction accounts: artifacts plus heads.
func TestSizeBytesIncludesHeads(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, res, _ := buildSolved(t, 77, 1)
	if err := st.Put(res); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, p := range append(globList(t, dir, "*"+ext), globList(t, dir, "*"+headExt)...) {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		want += info.Size()
	}
	if got := st.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d (artifacts + heads)", got, want)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (heads are not artifacts)", st.Len())
	}
}

// Open sweeps staging files stranded by a crash between CreateTemp and
// Rename — but only old ones; a concurrent writer's fresh tmp survives.
func TestOpenSweepsStaleTmp(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "put-stale123.tmp")
	fresh := filepath.Join(dir, "put-fresh456.tmp")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tmpMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	if _, err := Open(dir, Options{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale staging file survived Open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh staging file was swept — a live concurrent Put would lose its write")
	}
	if reg.Counter("artifact.tmp_sweeps").Load() != 1 {
		t.Fatalf("artifact.tmp_sweeps = %d, want 1", reg.Counter("artifact.tmp_sweeps").Load())
	}
}

// Prior must reject head pointers that are not exactly one 16-hex-digit
// token: the old Sscanf("%16x") parse accepted trailing garbage, so a
// torn write resolved to a wrong-but-well-formed fingerprint instead of
// the malformed-head error.
func TestPriorStrictHeadParse(t *testing.T) {
	_, res, _ := buildSolved(t, 78, 1)
	fpHex := "0000000000000000"
	for _, tc := range []struct {
		name    string
		payload string
	}{
		{"trailing garbage", fpHex + "garbage"},
		{"trailing newline", fpHex + "\n"},
		{"leading space", " " + fpHex},
		{"uppercase", strings.ToUpper("abcdef0000000000")},
		{"short", fpHex[:15]},
		{"long", fpHex + "0"},
		{"empty", ""},
		{"non-hex", "zzzzzzzzzzzzzzzz"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(res); err != nil {
				t.Fatal(err)
			}
			name := res.Analyzer.G.Design.Name
			if err := os.WriteFile(st.headPath(name), []byte(tc.payload), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = st.Prior(t.Context(), name)
			if err == nil || !strings.Contains(err.Error(), "malformed") {
				t.Fatalf("Prior with head %q = %v, want malformed-head error", tc.payload, err)
			}
		})
	}
}

// The canonical payload Put writes still parses.
func TestParseHeadAcceptsCanonical(t *testing.T) {
	fp, ok := parseHead([]byte("00c0ffee00c0ffee"))
	if !ok || fp != 0x00c0ffee00c0ffee {
		t.Fatalf("parseHead canonical = (%x, %v)", fp, ok)
	}
}
