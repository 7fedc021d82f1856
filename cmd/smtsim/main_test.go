package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunRejectsWarmupBelowOne: a spec's warmup 0 selects the default
// of 2 epochs, so run refuses -warmup 0 (and negatives) with exit 2
// before it simulates anything; -warmup 1 runs. The trace file is the
// witness: a run that simulates writes it.
func TestRunRejectsWarmupBelowOne(t *testing.T) {
	smtsim := func(warmup int) (int, string) {
		t.Helper()
		trace := filepath.Join(t.TempDir(), "trace.jsonl")
		code := run("art-mcf", "DCRA", 1, 1024, warmup, 4, 0, 0, "",
			false, trace, false, "", "", "")
		return code, trace
	}
	for _, warmup := range []int{0, -1} {
		code, trace := smtsim(warmup)
		if code != 2 {
			t.Errorf("run with -warmup %d = %d, want 2", warmup, code)
		}
		if _, err := os.Stat(trace); !os.IsNotExist(err) {
			t.Errorf("run with -warmup %d simulated: trace file exists (stat err %v)", warmup, err)
		}
	}
	code, trace := smtsim(1)
	if code != 0 {
		t.Fatalf("run with -warmup 1 = %d, want 0", code)
	}
	if _, err := os.Stat(trace); err != nil {
		t.Fatalf("run with -warmup 1 wrote no trace: %v", err)
	}
}
