package main

import (
	"context"
	"math"
	"os"
	"testing"
	"time"
)

// TestLeakCarriedToConflict runs the seed-1 leak cell to the scenario's
// default horizon, as `--to-conflict` does: it must stop at the paper's
// conflict epoch and match its golden. The timed leak cells stop at epoch
// 600, so this is the gate on the rest of the run. It takes a minute or
// more; -short skips it.
func TestLeakCarriedToConflict(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full 10k-validator leak to conflict")
	}
	t.Chdir("..") // the benchmark runs from the checkout root
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		t.Fatal(err)
	}
	b, err := newBench("leak", goldenSeed, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	b.toConflict = true
	err = runLeak(context.Background(), b)
	b.cleanup()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range b.errs {
		t.Error(e)
	}
	if b.failed != 0 || b.attempted != 1 {
		t.Fatalf("%d of %d cells failed, want one cell run", b.failed, b.attempted)
	}
	if b.goldenChecked != 1 {
		t.Errorf("the conflict run was checked against %d goldens, want 1", b.goldenChecked)
	}
	// One cell was run, so epochs per cell is the epoch it stopped at.
	if epochs := math.Round(b.e2e["epochs_per_s"] / b.e2e["cells_per_s"]); epochs != leakConflictEpoch {
		t.Errorf("the leak stopped at epoch %v, want %d", epochs, leakConflictEpoch)
	}
}
