package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestParseBudgets(t *testing.T) {
	got, err := parseBudgets(" 4, 16 ,,64")
	if err != nil || len(got) != 3 || got[0] != 4 || got[2] != 64 {
		t.Fatalf("parseBudgets = %v, %v", got, err)
	}
	for _, bad := range []string{"", " , ", "x", "0", "-3", "Inf", "NaN"} {
		if _, err := parseBudgets(bad); err == nil {
			t.Errorf("parseBudgets(%q) accepted", bad)
		}
	}
}

func TestReadCosts(t *testing.T) {
	if costs, err := readCosts(""); err != nil || costs != nil {
		t.Fatalf("readCosts(\"\") = %v, %v", costs, err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(good, []byte(`{"FUB00/r0": 2.5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(`{"FUB00/r0": "two"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if costs, err := readCosts(good); err != nil || costs["FUB00/r0"] != 2.5 {
		t.Errorf("readCosts(good) = %v, %v", costs, err)
	}
	for _, path := range []string{bad, filepath.Join(dir, "missing.json")} {
		if _, err := readCosts(path); err == nil {
			t.Errorf("readCosts(%s) accepted", path)
		}
	}
}
