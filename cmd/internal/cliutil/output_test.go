package cliutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteOutput(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "report\n")
		return err
	}); err != nil {
		t.Fatalf("WriteOutput: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "report\n" {
		t.Fatalf("file holds %q (%v), want the flushed report", got, err)
	}

	boom := errors.New("boom")
	if err := WriteOutput(path, func(io.Writer) error { return boom }); err != boom {
		t.Fatalf("write error %v, want %v", err, boom)
	}
	if err := WriteOutput(filepath.Join(t.TempDir(), "missing", "out.txt"), func(io.Writer) error {
		t.Fatal("write called without a file")
		return nil
	}); err == nil {
		t.Fatal("creating a file in a missing directory succeeded")
	}
}

// TestWriteOutputFullDevice: /dev/full accepts the open and fails every
// write with ENOSPC. Small writes sit in the buffer, so the error must
// surface from the flush; writes past the buffer surface it from write.
func TestWriteOutputFullDevice(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, size := range []int{10, 1 << 20} {
		err := WriteOutput("/dev/full", func(w io.Writer) error {
			_, err := io.WriteString(w, strings.Repeat("x", size))
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "no space left") {
			t.Fatalf("%d-byte write to /dev/full: err = %v, want ENOSPC", size, err)
		}
	}
}
