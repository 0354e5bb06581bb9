package cliutil

import "testing"

func TestLoadProgramUnknown(t *testing.T) {
	if _, err := LoadProgram("nope", "", 1, WorkloadSizes{}); err == nil {
		t.Error("LoadProgram accepted unknown workload")
	}
}
