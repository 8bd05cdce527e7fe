package engine

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestGridCellsOrderAndSeeds(t *testing.T) {
	g := Grid{
		Scenario: ScenarioLeakSim,
		P0:       []float64{0.4, 0.5},
		Beta0:    []float64{0.1, 0.2},
		Modes:    []string{"double", "semi"},
		Seeds:    []int64{1},
		N:        1000,
	}
	cells := g.Cells()
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	// p0 is the outermost dimension.
	if cells[0].Params.P0 != 0.4 || cells[7].Params.P0 != 0.5 {
		t.Errorf("unexpected order: %+v ... %+v", cells[0].Params, cells[7].Params)
	}
	// Derived seeds differ across coordinates and are reproducible.
	seen := map[int64]bool{}
	for _, c := range cells {
		if c.Params.Seed == 0 {
			t.Fatalf("cell %+v got no derived seed", c.Params)
		}
		seen[c.Params.Seed] = true
	}
	if len(seen) != 8 {
		t.Errorf("derived seeds collide: %d distinct of 8", len(seen))
	}
	again := g.Cells()
	if !reflect.DeepEqual(cells, again) {
		t.Error("Cells() is not deterministic")
	}
}

func TestGridCellsDerivesExplicitZeroAndNegativeSeeds(t *testing.T) {
	g := Grid{Scenario: ScenarioBounceMC, Beta0: []float64{0.33}, Seeds: []int64{-1, 0, 1}}
	cells := g.Cells()
	seen := map[int64]bool{}
	for _, c := range cells {
		if c.Params.Seed <= 0 {
			t.Errorf("base seed list must always derive a positive cell seed, got %d", c.Params.Seed)
		}
		seen[c.Params.Seed] = true
	}
	if len(seen) != 3 {
		t.Errorf("derived seeds collide: %d distinct of 3", len(seen))
	}
	// Without a seed dimension, cells stay on the scenario default.
	if c := (Grid{Scenario: ScenarioBounceMC, Beta0: []float64{0.33}}).Cells(); c[0].Params.Seed != 0 {
		t.Errorf("unspecified seed dimension must stay zero, got %d", c[0].Params.Seed)
	}
}

func TestGridFillFrom(t *testing.T) {
	g := Grid{Scenario: ScenarioLeakSim, Beta0: []float64{0.1, 0.2}}
	filled := g.FillFrom(Params{P0: 0.4, Beta0: 0.3, Mode: "double", Seed: 7, Horizon: 500, N: 100, Sample: 50})
	if !reflect.DeepEqual(filled.P0, []float64{0.4}) {
		t.Errorf("p0 not filled: %v", filled.P0)
	}
	if !reflect.DeepEqual(filled.Beta0, []float64{0.1, 0.2}) {
		t.Errorf("specified beta0 overridden: %v", filled.Beta0)
	}
	if !reflect.DeepEqual(filled.Modes, []string{"double"}) || !reflect.DeepEqual(filled.Seeds, []int64{7}) ||
		!reflect.DeepEqual(filled.Horizons, []int{500}) || filled.N != 100 || filled.Sample != 50 {
		t.Errorf("fill incomplete: %+v", filled)
	}
}

func TestDeriveSeedProperties(t *testing.T) {
	a := DeriveSeed(1, 0.5, 0.2, "double", 9000)
	b := DeriveSeed(1, 0.5, 0.2, "double", 9000)
	if a != b {
		t.Error("same coordinates must derive the same seed")
	}
	if a <= 0 {
		t.Errorf("derived seed %d must be positive", a)
	}
	if DeriveSeed(2, 0.5, 0.2, "double", 9000) == a {
		t.Error("base seed must matter")
	}
	if DeriveSeed(1, 0.6, 0.2, "double", 9000) == a {
		t.Error("p0 must matter")
	}
	if DeriveSeed(1, 0.5, 0.2, "semi", 9000) == a {
		t.Error("mode must matter")
	}
}

func TestParseGrid(t *testing.T) {
	g, err := ParseGrid("leaksim", "p0=0.2:0.6:0.2; beta0=0.1,0.25; mode=double,semi; seed=1:3:1; horizon=9000; n=5000; sample=100")
	if err != nil {
		t.Fatal(err)
	}
	if g.Scenario != "leaksim" {
		t.Errorf("scenario = %q", g.Scenario)
	}
	wantP0 := []float64{0.2, 0.4, 0.6}
	if len(g.P0) != len(wantP0) {
		t.Fatalf("p0 = %v, want %v", g.P0, wantP0)
	}
	for i := range wantP0 {
		if math.Abs(g.P0[i]-wantP0[i]) > 1e-12 {
			t.Errorf("p0[%d] = %v, want %v", i, g.P0[i], wantP0[i])
		}
	}
	if !reflect.DeepEqual(g.Beta0, []float64{0.1, 0.25}) {
		t.Errorf("beta0 = %v", g.Beta0)
	}
	if !reflect.DeepEqual(g.Modes, []string{"double", "semi"}) {
		t.Errorf("modes = %v", g.Modes)
	}
	if !reflect.DeepEqual(g.Seeds, []int64{1, 2, 3}) {
		t.Errorf("seeds = %v", g.Seeds)
	}
	if !reflect.DeepEqual(g.Horizons, []int{9000}) {
		t.Errorf("horizons = %v", g.Horizons)
	}
	if g.N != 5000 || g.Sample != 100 {
		t.Errorf("n = %d sample = %d", g.N, g.Sample)
	}
	if n := len(g.Cells()); n != 3*2*2*3 {
		t.Errorf("cells = %d, want 36", n)
	}
}

// TestParseGridErrors: malformed specs fail with messages that name the
// offending dimension and token, so a mistyped 40-cell sweep spec is
// debuggable from the error alone.
func TestParseGridErrors(t *testing.T) {
	tests := []struct {
		name string
		spec string
		want []string // substrings the error must contain
	}{
		{"not key=value", "p0", []string{`"p0"`, "key=value"}},
		{"unknown key", "warp=1", []string{`"warp"`, "unknown sweep key"}},
		{"hi below lo", "p0=0.5:0.1:0.1", []string{`"p0"`, `"0.5:0.1:0.1"`, "lo <= hi"}},
		{"float token", "p0=0.2,zap", []string{`"p0"`, `"zap"`}},
		{"float range token", "p0=0.1:x:0.1", []string{`"p0"`, `"x"`}},
		{"range arity", "beta0=0.1:0.2", []string{`"beta0"`, `"0.1:0.2"`, "lo:hi:step"}},
		{"zero step", "seed=1:10:0", []string{`"seed"`, `"1:10:0"`, "step > 0"}},
		{"int token", "horizon=10,later", []string{`"horizon"`, `"later"`}},
		{"int range token", "seed=1:ten:1", []string{`"seed"`, `"ten"`}},
		{"n wants one value", "n=1,2", []string{`"n"`, "single value", `"1,2"`}},
		{"sample wants one value", "sample=5,10", []string{`"sample"`, "single value", `"5,10"`}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseGrid("leaksim", tc.spec)
			if err == nil {
				t.Fatalf("spec %q must error", tc.spec)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("spec %q: error %q does not name %s", tc.spec, err, want)
				}
			}
		})
	}
}

func TestSweepRecordsCellErrors(t *testing.T) {
	cells := []Cell{
		{Scenario: ScenarioAnalyticThreshold, Params: Params{P0: 0.5}},
		{Scenario: "no-such-scenario", Params: Params{}},
		{Scenario: ScenarioLeakSim, Params: Params{Mode: "warp"}},
	}
	results := SweepContext(context.Background(), cells, Options{Workers: 2})
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Err != "" {
		t.Errorf("cell 0 failed: %s", results[0].Err)
	}
	if results[1].Err == "" || results[2].Err == "" {
		t.Error("failing cells must record errors")
	}
	if FirstError(results) == nil {
		t.Error("FirstError must surface the failure")
	}
	if FirstError(results[:1]) != nil {
		t.Error("FirstError on clean results must be nil")
	}
	// A failed cell of a known scenario still records the defaulted
	// params of the attempted run.
	if p := results[2].Params; p.N == 0 || p.Horizon == 0 {
		t.Errorf("failed leaksim cell lost its defaulted params: %+v", p)
	}
}

// TestSweepDeterminism is the acceptance check of the sweep runner: the
// same grid, including Monte-Carlo cells, must produce bit-identical
// Result slices with 1 worker and with runtime.NumCPU() workers.
func TestSweepDeterminism(t *testing.T) {
	leak := Grid{
		Scenario: ScenarioLeakSim,
		P0:       []float64{0.4, 0.5},
		Beta0:    []float64{0.1, 0.2},
		Modes:    []string{"double", "semi"},
		Seeds:    []int64{1},
		Horizons: []int{1500},
		N:        2000,
		Sample:   500,
	}
	mc := Grid{
		Scenario: ScenarioBounceMC,
		P0:       []float64{0.5},
		Beta0:    []float64{0.33},
		Seeds:    []int64{1, 2, 3},
		Horizons: []int{400},
		N:        100,
	}
	cells := append(leak.Cells(), mc.Cells()...)

	sequential := SweepContext(context.Background(), cells, Options{Workers: 1})
	parallel := SweepContext(context.Background(), cells, Options{Workers: runtime.NumCPU()})
	// Meta carries wall-clock timing and is excluded from the
	// determinism contract.
	if !reflect.DeepEqual(StripMeta(sequential), StripMeta(parallel)) {
		t.Fatalf("sweep results differ between 1 and %d workers", runtime.NumCPU())
	}
	if err := FirstError(sequential); err != nil {
		t.Fatal(err)
	}
	// The Monte-Carlo cells must have actually exercised the RNG.
	var mcSeen bool
	for _, r := range sequential {
		if r.Scenario == ScenarioBounceMC {
			mcSeen = true
			if r.Params.Seed == 0 {
				t.Errorf("MC cell without derived seed: %+v", r.Params)
			}
		}
	}
	if !mcSeen {
		t.Fatal("no Monte-Carlo cells in the determinism grid")
	}
}

func TestSweepGridAndWorkerDefaults(t *testing.T) {
	g := Grid{Scenario: ScenarioAnalyticThreshold, P0: []float64{0.3, 0.5, 0.7}}
	results := SweepGridContext(context.Background(), g, Options{})
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	// The symmetric corner again.
	if v, _ := results[1].Metric("threshold_both_branches"); v < 0.24 || v > 0.245 {
		t.Errorf("threshold(0.5) = %v", v)
	}
}

func TestTable1CellsMatchPaper(t *testing.T) {
	cells := Table1Cells(1)
	if len(cells) != 5 {
		t.Fatalf("cells = %d, want 5", len(cells))
	}
	results := SweepContext(context.Background(), cells, Options{})
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	// Scenario 5.1 at p0=0.5: the paper-anchored analytic conflict is
	// 4686; the exact integer simulation lands a couple dozen epochs
	// earlier (endogenous ejection).
	if v, _ := results[0].Metric("analytic_epoch"); v < 4680 || v > 4690 {
		t.Errorf("5.1 analytic_epoch = %v, want ~4686", v)
	}
	if v, _ := results[0].Metric("sim_epoch"); v < 4650 || v > 4690 {
		t.Errorf("5.1 sim_epoch = %v, want ~4662", v)
	}
	// Scenario 5.2.3 crosses one third.
	if v, _ := results[3].Metric("crossed_one_third"); v != 1 {
		t.Error("5.2.3 must cross one third")
	}
}

func TestParseGridRateAndGST(t *testing.T) {
	g, err := ParseGrid("sim/drops", "rate=0.1:0.3:0.1; gst=4,8; seed=1; n=256")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rates) != 3 || g.Rates[0] != 0.1 {
		t.Errorf("rates = %v", g.Rates)
	}
	if len(g.GSTs) != 2 || g.GSTs[1] != 8 {
		t.Errorf("gsts = %v", g.GSTs)
	}
	cells := g.Cells()
	if len(cells) != 6 {
		t.Fatalf("cells = %d, want 3 rates x 2 gsts", len(cells))
	}
	// Cells differing only in rate/gst share their derived seed (common
	// random numbers): every cell of a robustness sweep faces the same
	// duty schedule.
	for _, c := range cells[1:] {
		if c.Params.Seed != cells[0].Params.Seed {
			t.Errorf("cell %v has different seed than %v", c.Params, cells[0].Params)
		}
	}
	// The rate/gst coordinates land in the cell params.
	if cells[0].Params.Rate != 0.1 || cells[0].Params.GST != 4 {
		t.Errorf("first cell params = %v", cells[0].Params)
	}
	if cells[5].Params.GST != 8 {
		t.Errorf("last cell params = %v", cells[5].Params)
	}
}

func TestGridFillFromRateAndGST(t *testing.T) {
	g := Grid{Scenario: "sim/gst"}
	g = g.FillFrom(Params{Rate: 0.25, GST: 6})
	if len(g.Rates) != 1 || g.Rates[0] != 0.25 {
		t.Errorf("rates = %v", g.Rates)
	}
	if len(g.GSTs) != 1 || g.GSTs[0] != 6 {
		t.Errorf("gsts = %v", g.GSTs)
	}
}

func TestParamsStringIncludesRateAndGST(t *testing.T) {
	s := Params{P0: 0.5, Rate: 0.2, GST: 8}.String()
	for _, want := range []string{"rate=0.2", "gst=8"} {
		if !strings.Contains(s, want) {
			t.Errorf("Params.String() = %q, missing %q", s, want)
		}
	}
}
