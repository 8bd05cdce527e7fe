package engine

import (
	"context"
	"reflect"
	"testing"
)

// variantRegistry builds a registry holding the four forkable sim
// scenarios under the given simulator variant.
func variantRegistry(t *testing.T, v SimVariant) *Registry {
	t.Helper()
	reg := NewRegistry()
	for _, name := range []string{"sim/drops", "sim/gst", "sim/leak", "sim/semiactive"} {
		s, ok := NewSimScenarioVariant(name, v)
		if !ok {
			t.Fatalf("NewSimScenarioVariant(%q) not forkable", name)
		}
		reg.MustRegister(s)
	}
	return reg
}

// equivalenceGrids are the randomized-shape grids the warm-vs-cold suite
// sweeps: small populations, short horizons, every forkable scenario, and
// shapes that exercise multiple groups (two p0 values), multiple branch
// epochs per group, and cells sharing a single branch.
func equivalenceGrids() []Grid {
	return []Grid{
		{Scenario: "sim/gst", P0: []float64{0.4, 0.6}, GSTs: []int{2, 4, 5}, Horizons: []int{6, 8}, N: 24},
		{Scenario: "sim/leak", P0: []float64{0.5}, Horizons: []int{8, 10, 12}, N: 20, Sample: 2},
		{Scenario: "sim/semiactive", P0: []float64{0.5}, Beta0: []float64{0.2}, Horizons: []int{8, 11}, N: 20},
		{Scenario: "sim/drops", Rates: []float64{0.2}, Horizons: []int{4, 6}, N: 16},
	}
}

// TestWarmVsColdEquivalence is the determinism invariant of the snapshot
// tree: bit-identical results versus the cold sweep for any worker count,
// snapshot-reuse pattern, and eviction schedule — across the full 2x2
// (view layout x fork-choice engine) simulator matrix.
func TestWarmVsColdEquivalence(t *testing.T) {
	ctx := context.Background()
	variants := []SimVariant{
		{},
		{OracleForkChoice: true},
		{PerValidatorViews: true},
		{PerValidatorViews: true, OracleForkChoice: true},
	}
	for _, v := range variants {
		v := v
		name := "cohort-protoarray"
		switch {
		case v.PerValidatorViews && v.OracleForkChoice:
			name = "pervalidator-oracle"
		case v.PerValidatorViews:
			name = "pervalidator-protoarray"
		case v.OracleForkChoice:
			name = "cohort-oracle"
		}
		t.Run(name, func(t *testing.T) {
			reg := variantRegistry(t, v)
			for _, g := range equivalenceGrids() {
				cells := g.Cells()
				cold := SweepContext(ctx, cells, Options{Workers: 2, Registry: reg})
				for _, workers := range []int{1, 3} {
					for _, budget := range []int64{-1, 1} {
						warm := SweepContext(ctx, cells, Options{
							Workers:   workers,
							Registry:  reg,
							WarmStart: &WarmStartOptions{MemoryBudget: budget},
						})
						if len(warm) != len(cold) {
							t.Fatalf("%s workers=%d budget=%d: %d results, want %d", g.Scenario, workers, budget, len(warm), len(cold))
						}
						for i := range cold {
							if !reflect.DeepEqual(cold[i].WithoutMeta(), warm[i].WithoutMeta()) {
								t.Errorf("%s workers=%d budget=%d cell %d (%s): warm diverges from cold\ncold: %+v\nwarm: %+v",
									g.Scenario, workers, budget, i, cells[i].Params, cold[i].WithoutMeta(), warm[i].WithoutMeta())
							}
						}
					}
				}
			}
		})
	}
}

// TestWarmStartNeedsNoImport: warm start is part of the engine itself.
// Engine's own tests install nothing, yet a two-cell shared-prefix grid
// run with WarmStart resumes both cells from the shared snapshot and
// matches the cold payloads.
func TestWarmStartNeedsNoImport(t *testing.T) {
	ctx := context.Background()
	cells := Grid{Scenario: ScenarioSimGST, P0: []float64{0.5}, GSTs: []int{2, 4}, Horizons: []int{6}, N: 24}.Cells()
	cold := SweepContext(ctx, cells, Options{Workers: 2})
	warm := SweepContext(ctx, cells, Options{Workers: 2, WarmStart: &WarmStartOptions{}})
	for i := range cells {
		if m := warm[i].Meta; m == nil || m.Warm == nil || !m.Warm.Hit {
			t.Errorf("cell %d: meta %+v, want a warm-start snapshot hit", i, m)
		}
		if !reflect.DeepEqual(cold[i].WithoutMeta(), warm[i].WithoutMeta()) {
			t.Errorf("cell %d: warm result diverges from cold", i)
		}
	}
}

// TestWarmStartObservability checks the provenance a warm sweep stamps
// into RunMeta: resumed cells report a hit with the branch epoch and saved
// epochs, the counters see the prefix tree, and a starvation budget forces
// at least one eviction-then-rebuild without changing results.
func TestWarmStartObservability(t *testing.T) {
	ctx := context.Background()
	g := Grid{Scenario: "sim/gst", P0: []float64{0.5}, GSTs: []int{2, 4}, Horizons: []int{6}, N: 24}
	cells := g.Cells()

	warm := SweepContext(ctx, cells, Options{
		Workers:   1,
		WarmStart: &WarmStartOptions{MemoryBudget: -1},
	})
	hits := 0
	for i, r := range warm {
		if r.Err != "" {
			t.Fatalf("cell %d failed: %s", i, r.Err)
		}
		if r.Meta == nil || r.Meta.Warm == nil {
			t.Fatalf("cell %d: no warm meta", i)
		}
		w := r.Meta.Warm
		if !w.Hit {
			t.Errorf("cell %d: expected a snapshot hit, got %+v", i, w)
		}
		if w.BranchEpoch != cells[i].Params.GST {
			t.Errorf("cell %d: branch epoch %d, want %d", i, w.BranchEpoch, cells[i].Params.GST)
		}
		if w.EpochsSaved != cells[i].Params.GST {
			t.Errorf("cell %d: epochs saved %d, want %d", i, w.EpochsSaved, cells[i].Params.GST)
		}
		if w.PrefixNodes != 2 {
			t.Errorf("cell %d: prefix nodes %d, want 2", i, w.PrefixNodes)
		}
		if w.PeakResidentBytes <= 0 {
			t.Errorf("cell %d: peak resident bytes %d, want > 0", i, w.PeakResidentBytes)
		}
		hits++
	}
	if hits != len(cells) {
		t.Fatalf("%d hits, want %d", hits, len(cells))
	}

	// A 1-byte budget evicts every checkpoint as soon as the next
	// publishes; with one worker the spine finishes before any resume
	// starts, so the shallow checkpoint must be rebuilt on demand.
	starved := SweepContext(ctx, cells, Options{
		Workers:   1,
		WarmStart: &WarmStartOptions{MemoryBudget: 1},
	})
	rebuilt := 0
	for i, r := range starved {
		if r.Err != "" {
			t.Fatalf("starved cell %d failed: %s", i, r.Err)
		}
		if r.Meta != nil && r.Meta.Warm != nil && r.Meta.Warm.Rebuilt > rebuilt {
			rebuilt = r.Meta.Warm.Rebuilt
		}
	}
	if rebuilt == 0 {
		t.Errorf("1-byte budget produced no rebuilds")
	}
	for i := range warm {
		if !reflect.DeepEqual(warm[i].WithoutMeta(), starved[i].WithoutMeta()) {
			t.Errorf("cell %d: eviction schedule changed the result", i)
		}
	}
}

// TestWarmStartColdFallback routes a non-forkable scenario (sim/bounce:
// the Bouncer carries its own RNG cursor) and a lone forkable cell through
// the warm scheduler: both must fall back to the cold path and still
// succeed, with Hit=false provenance.
func TestWarmStartColdFallback(t *testing.T) {
	ctx := context.Background()
	cells := []Cell{
		{Scenario: "sim/bounce", Params: Params{N: 40, Horizon: 8, GST: 2, P0: 0.7, Beta0: 0.25, Seed: 19}},
		// A single sim/gst cell shares a prefix with nobody.
		{Scenario: "sim/gst", Params: Params{N: 24, Horizon: 6, GST: 3}},
	}
	cold := SweepContext(ctx, cells, Options{Workers: 2})
	warm := SweepContext(ctx, cells, Options{
		Workers:   2,
		WarmStart: &WarmStartOptions{},
	})
	for i := range cells {
		if warm[i].Err != "" {
			t.Fatalf("cell %d failed: %s", i, warm[i].Err)
		}
		if !reflect.DeepEqual(cold[i].WithoutMeta(), warm[i].WithoutMeta()) {
			t.Errorf("cell %d: cold-fallback result diverges", i)
		}
		if warm[i].Meta == nil || warm[i].Meta.Warm == nil {
			t.Fatalf("cell %d: cold-fallback cell lost warm provenance", i)
		}
		if warm[i].Meta.Warm.Hit {
			t.Errorf("cell %d: cold-fallback cell claims a snapshot hit", i)
		}
	}
}

// TestWarmStartCancellation cancels before the sweep starts: every cell
// must be marked with the context error and the stream must close.
func TestWarmStartCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := Grid{Scenario: "sim/gst", P0: []float64{0.5}, GSTs: []int{2, 4}, Horizons: []int{6}, N: 24}
	results := SweepContext(ctx, g.Cells(), Options{
		Workers:   2,
		WarmStart: &WarmStartOptions{},
	})
	for i, r := range results {
		if r.Err == "" {
			t.Errorf("cell %d: expected a context error", i)
		}
	}
}

// TestWarmStartErrorCells runs a grid whose cells are invalid for the
// scenario: the warm scheduler must surface the same per-cell errors the
// cold sweep does.
func TestWarmStartErrorCells(t *testing.T) {
	ctx := context.Background()
	cells := []Cell{
		{Scenario: "sim/gst", Params: Params{N: 24, Horizon: 6, GST: -1, Explicit: FieldGST}},
		{Scenario: "sim/nope", Params: Params{N: 8}},
		{Scenario: "sim/gst", Params: Params{N: 24, Horizon: 6, GST: 2}},
		{Scenario: "sim/gst", Params: Params{N: 24, Horizon: 8, GST: 2}},
	}
	cold := SweepContext(ctx, cells, Options{Workers: 2})
	warm := SweepContext(ctx, cells, Options{
		Workers:   2,
		WarmStart: &WarmStartOptions{},
	})
	for i := range cells {
		if !reflect.DeepEqual(cold[i].WithoutMeta(), warm[i].WithoutMeta()) {
			t.Errorf("cell %d: warm error handling diverges\ncold: %+v\nwarm: %+v",
				i, cold[i].WithoutMeta(), warm[i].WithoutMeta())
		}
	}
}
