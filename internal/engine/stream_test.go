package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// streamRegistry builds a registry with one cancellable scenario that
// takes perCell to complete unless its context is cancelled first.
func streamRegistry(perCell time.Duration) *Registry {
	reg := NewRegistry()
	reg.MustRegister(NewContextScenario("slow", "cancellable test scenario",
		Params{P0: 0.5},
		func(ctx context.Context, p Params) (Result, error) {
			select {
			case <-ctx.Done():
				return Result{}, ctx.Err()
			case <-time.After(perCell):
				return Result{Metrics: []Metric{{Name: "ok", Value: 1}}}, nil
			}
		}))
	return reg
}

// TestSweepStreamMatchesBatch is the acceptance check of the streaming
// redesign: for any worker count, collecting SweepStream yields exactly
// the one-worker SweepContext result set (Meta timing aside), and the
// progress counts are a complete 1..Total sequence.
func TestSweepStreamMatchesBatch(t *testing.T) {
	leak := Grid{
		Scenario: ScenarioLeakSim,
		P0:       []float64{0.4, 0.5},
		Beta0:    []float64{0.1, 0.2},
		Modes:    []string{"double", "semi"},
		Seeds:    []int64{1},
		Horizons: []int{1200},
		N:        2000,
	}
	mc := Grid{
		Scenario: ScenarioBounceMC,
		P0:       []float64{0.5},
		Beta0:    []float64{0.33},
		Seeds:    []int64{1, 2},
		Horizons: []int{300},
		N:        100,
	}
	cells := append(leak.Cells(), mc.Cells()...)
	batch := StripMeta(SweepContext(context.Background(), cells, Options{Workers: 1}))

	for _, workers := range []int{1, 3, runtime.NumCPU()} {
		collected := make([]Result, len(cells))
		seen := make([]bool, len(cells))
		wantCompleted := 1
		for u := range SweepStream(context.Background(), cells, Options{Workers: workers}) {
			if u.Total != len(cells) {
				t.Fatalf("workers=%d: Total = %d, want %d", workers, u.Total, len(cells))
			}
			if u.Completed != wantCompleted {
				t.Fatalf("workers=%d: Completed = %d, want %d", workers, u.Completed, wantCompleted)
			}
			wantCompleted++
			if u.Index < 0 || u.Index >= len(cells) || seen[u.Index] {
				t.Fatalf("workers=%d: bad or duplicate index %d", workers, u.Index)
			}
			seen[u.Index] = true
			if u.Result.Meta == nil || u.Result.Meta.DurationMS < 0 {
				t.Errorf("workers=%d: cell %d missing duration meta: %+v", workers, u.Index, u.Result.Meta)
			}
			collected[u.Index] = u.Result
		}
		if wantCompleted != len(cells)+1 {
			t.Fatalf("workers=%d: stream yielded %d updates, want %d", workers, wantCompleted-1, len(cells))
		}
		if !reflect.DeepEqual(StripMeta(collected), batch) {
			t.Errorf("workers=%d: streamed result set diverges from the one-worker sweep", workers)
		}
	}
}

// TestSweepContextCancellation: a sweep aborted mid-grid returns promptly,
// marks every unfinished cell with the context error, and leaks no
// goroutines.
func TestSweepContextCancellation(t *testing.T) {
	reg := streamRegistry(20 * time.Millisecond)
	cells := make([]Cell, 16)
	for i := range cells {
		cells[i] = Cell{Scenario: "slow", Params: Params{Seed: int64(i + 1)}}
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	stream := SweepStream(ctx, cells, Options{Workers: 2, Registry: reg})
	first, ok := <-stream
	if !ok || first.Result.Err != "" {
		t.Fatalf("first update = %+v, ok=%v, want one clean result", first, ok)
	}
	cancel()
	start := time.Now()
	finished, cancelled := 1, 0
	for u := range stream {
		finished++
		if u.Result.Err != "" {
			if !strings.Contains(u.Result.Err, context.Canceled.Error()) {
				t.Errorf("cell %d: Err = %q, want a context error", u.Index, u.Result.Err)
			}
			cancelled++
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled sweep drained in %v, want prompt close", d)
	}
	if finished != len(cells) {
		t.Errorf("stream yielded %d updates, want %d (every cell reported)", finished, len(cells))
	}
	if cancelled == 0 {
		t.Error("no cell recorded the context error")
	}

	// The worker pool and collector must be gone once the stream closes.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines after drained cancel = %d, want <= %d", n, before)
	}
}

// TestSweepContextPreCancelled: with an already-cancelled context every
// cell is marked without computation and the batch wrapper still returns
// one result per cell, in cell order.
func TestSweepContextPreCancelled(t *testing.T) {
	reg := streamRegistry(time.Hour) // would time out if any cell actually ran
	cells := make([]Cell, 8)
	for i := range cells {
		cells[i] = Cell{Scenario: "slow", Params: Params{Seed: int64(i + 1)}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	results := SweepContext(ctx, cells, Options{Workers: 4, Registry: reg})
	if d := time.Since(start); d > time.Second {
		t.Fatalf("pre-cancelled sweep took %v", d)
	}
	if len(results) != len(cells) {
		t.Fatalf("results = %d, want %d", len(results), len(cells))
	}
	for i, r := range results {
		if !strings.Contains(r.Err, context.Canceled.Error()) {
			t.Errorf("cell %d: Err = %q, want context error", i, r.Err)
		}
		if r.Params.Seed != int64(i+1) {
			t.Errorf("cell %d out of order: %+v", i, r.Params)
		}
	}
	if err := FirstError(results); err == nil {
		t.Error("FirstError must surface the context error")
	}
}

// TestRegistryRunContext: the registry prefers ContextRunner scenarios and
// gates plain ones with an upfront cancellation check.
func TestRegistryRunContext(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(NewScenario("plain", "no ctx", Params{},
		func(p Params) (Result, error) { return Result{Outcome: "ran"}, nil }))
	reg.MustRegister(NewContextScenario("aware", "ctx", Params{},
		func(ctx context.Context, p Params) (Result, error) {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("observed: %w", err)
			}
			return Result{Outcome: "ran"}, nil
		}))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := reg.RunContext(ctx, "plain", Params{}); !errors.Is(err, context.Canceled) {
		t.Errorf("plain scenario under cancelled ctx: err = %v", err)
	}
	if _, err := reg.RunContext(ctx, "aware", Params{}); !errors.Is(err, context.Canceled) {
		t.Errorf("aware scenario under cancelled ctx: err = %v", err)
	}
	for _, name := range []string{"plain", "aware"} {
		res, err := reg.RunContext(context.Background(), name, Params{})
		if err != nil || res.Outcome != "ran" {
			t.Errorf("%s under live ctx: %+v, %v", name, res, err)
		}
	}
}

// TestRegistryInfos: the serializable listing names every scenario and
// flags the cancellable ones.
func TestRegistryInfos(t *testing.T) {
	infos := Infos()
	if len(infos) != len(Names()) {
		t.Fatalf("infos = %d, names = %d", len(infos), len(Names()))
	}
	byName := map[string]Info{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	if in := byName[ScenarioLeakSim]; !in.Cancellable || in.Description == "" || in.Defaults.N == 0 {
		t.Errorf("leaksim info incomplete: %+v", in)
	}
	if in := byName[ScenarioDoubleVote]; in.Cancellable {
		t.Errorf("closed-form scenario flagged cancellable: %+v", in)
	}
}

// TestLongScenariosCancelInsideLoops: the paper-scale engines abort
// mid-run, not only between cells.
func TestLongScenariosCancelInsideLoops(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	for _, cell := range []Cell{
		{Scenario: ScenarioLeakSim, Params: Params{N: 10000, Horizon: 50_000_000}},
		{Scenario: ScenarioBounceMC, Params: Params{N: 2000, Horizon: 50_000_000, Sample: 1000}},
	} {
		start := time.Now()
		_, err := RunContext(ctx, cell.Scenario, cell.Params)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want deadline exceeded", cell.Scenario, err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("%s: cancelled run took %v, want prompt abort", cell.Scenario, d)
		}
	}
}
