package artifact

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"seqavf/internal/obs"
)

func TestSensRoundTripAndMiss(t *testing.T) {
	reg := obs.New()
	st, err := Open(t.TempDir(), Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if data, err := st.GetSens(0xabc, 0xdef); err != nil || data != nil {
		t.Fatalf("clean miss should be (nil, nil), got (%v, %v)", data, err)
	}
	payload := []byte("opaque sensitivity bytes")
	if err := st.PutSens(0xabc, 0xdef, payload); err != nil {
		t.Fatalf("PutSens: %v", err)
	}
	got, err := st.GetSens(0xabc, 0xdef)
	if err != nil {
		t.Fatalf("GetSens: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round-trip mismatch: %q", got)
	}
	// A different env hash is a different key.
	if data, err := st.GetSens(0xabc, 0xd00d); err != nil || data != nil {
		t.Fatalf("other env hash should miss, got (%v, %v)", data, err)
	}
	// Overwrite wins.
	if err := st.PutSens(0xabc, 0xdef, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := st.GetSens(0xabc, 0xdef); string(got) != "v2" {
		t.Fatalf("overwrite not visible: %q", got)
	}
	if got := reg.Counter("artifact.sens_puts").Load(); got != 2 {
		t.Fatalf("artifact.sens_puts = %d, want 2", got)
	}
}

// Sensitivity vectors must count against MaxBytes and age out of the
// same LRU as artifacts — otherwise a harden-heavy fleet grows .sens
// debris without bound under a "bounded" store.
func TestSensEvictionAndSizeBytes(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	st, err := Open(dir, Options{MaxBytes: 256, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	pay := make([]byte, 100)
	if err := st.PutSens(1, 1, pay); err != nil {
		t.Fatal(err)
	}
	if got := st.SizeBytes(); got != 100 {
		t.Fatalf("SizeBytes %d, want 100", got)
	}
	// Age the first entry so LRU order is deterministic.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, "0000000000000001-0000000000000001.sens"), old, old); err != nil {
		t.Fatal(err)
	}
	if err := st.PutSens(2, 2, pay); err != nil {
		t.Fatal(err)
	}
	if err := st.PutSens(3, 3, pay); err != nil {
		t.Fatal(err)
	}
	if got := st.SizeBytes(); got > 256 {
		t.Fatalf("store over budget after eviction: %d > 256", got)
	}
	if data, err := st.GetSens(1, 1); err != nil || data != nil {
		t.Fatalf("oldest vector should have been evicted, got (%v, %v)", data, err)
	}
	if data, _ := st.GetSens(3, 3); data == nil {
		t.Fatal("newest vector evicted")
	}
}
