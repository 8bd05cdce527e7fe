package engine

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// defaultsProbe is a scenario whose defaults are non-zero in every
// dimension the zero-folding bug used to corrupt: it just echoes its
// effective params as metrics.
func defaultsProbe(t *testing.T) (*Registry, Params) {
	t.Helper()
	defaults := Params{P0: 0.5, Beta0: 0.25, Mode: "m", Seed: 9, N: 100, Horizon: 10, Rate: 0.4, GST: 7}
	reg := NewRegistry()
	reg.MustRegister(NewScenario("probe", "echoes effective params", defaults,
		func(p Params) (Result, error) {
			return Result{Metrics: []Metric{
				{Name: "rate", Value: p.Rate},
				{Name: "gst", Value: float64(p.GST)},
				{Name: "p0", Value: p.P0},
				{Name: "beta0", Value: p.Beta0},
			}}, nil
		}))
	return reg, defaults
}

// TestWithDefaultsKeepsExplicitZeros is the headline regression: an
// explicit zero-valued parameter survives defaulting, while an unset zero
// still takes the scenario default.
func TestWithDefaultsKeepsExplicitZeros(t *testing.T) {
	_, d := defaultsProbe(t)

	unset := Params{}.WithDefaults(d)
	if unset.Rate != d.Rate || unset.GST != d.GST || unset.P0 != d.P0 || unset.Beta0 != d.Beta0 {
		t.Fatalf("unset params did not take defaults: %+v", unset)
	}

	explicit := Params{}.MarkExplicit(FieldRate, FieldGST, FieldP0, FieldBeta0).WithDefaults(d)
	if explicit.Rate != 0 || explicit.GST != 0 || explicit.P0 != 0 || explicit.Beta0 != 0 {
		t.Fatalf("explicit zeros were rewritten to defaults: %+v", explicit)
	}
	if explicit.Mode != d.Mode || explicit.Seed != d.Seed || explicit.N != d.N {
		t.Fatalf("unmarked fields should still default: %+v", explicit)
	}
	if explicit.Explicit != FieldAll {
		t.Fatalf("WithDefaults must produce a fully specified record (FieldAll), got %b", explicit.Explicit)
	}
}

// TestParamsJSONRoundTripPreservesExplicitZeros pins the wire symmetry:
// a fully defaulted record containing an explicit zero serializes that
// zero and decodes back to the identical effective run — re-submitting a
// result's params reproduces the result instead of silently reverting
// zeros to scenario defaults. Sparse requests stay sparse.
func TestParamsJSONRoundTripPreservesExplicitZeros(t *testing.T) {
	_, d := defaultsProbe(t)
	full := Params{}.MarkExplicit(FieldRate, FieldGST).WithDefaults(d)
	if full.Rate != 0 || full.GST != 0 {
		t.Fatalf("setup: explicit zeros lost before the round trip: %+v", full)
	}
	blob, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"rate":0`) || !strings.Contains(string(blob), `"gst":0`) {
		t.Fatalf("fully specified record omitted its explicit zeros: %s", blob)
	}
	back, err := DecodeParams(blob)
	if err != nil {
		t.Fatal(err)
	}
	if again := back.WithDefaults(d); again != full {
		t.Fatalf("round trip changed the effective run:\n  sent: %+v\n  got:  %+v", full, again)
	}

	// A sparse request marshals sparsely: unset fields stay absent so the
	// receiving registry can default them.
	sparse, err := json.Marshal(Params{N: 60})
	if err != nil {
		t.Fatal(err)
	}
	if string(sparse) != `{"n":60}` {
		t.Fatalf("sparse params marshalled as %s, want {\"n\":60}", sparse)
	}
}

// TestSweepBaselineCellKeepsExplicitZero sweeps rate=[0, 0.1] (and
// gst=[0, 4]) over a scenario whose defaults are non-zero: the baseline
// cell must run with rate exactly 0 and gst exactly 0, not with the
// defaults — the bug that silently corrupted the first cell of every
// drop-rate/GST sweep.
func TestSweepBaselineCellKeepsExplicitZero(t *testing.T) {
	reg, d := defaultsProbe(t)
	grid, err := ParseGrid("probe", "rate=0,0.1; gst=0,4")
	if err != nil {
		t.Fatal(err)
	}
	results := SweepGridContext(context.Background(), grid, Options{Workers: 1, Registry: reg})
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("want 4 cells, got %d", len(results))
	}
	wantRate := []float64{0, 0, 0.1, 0.1}
	wantGST := []float64{0, 4, 0, 4}
	for i, r := range results {
		rate, _ := r.Metric("rate")
		gst, _ := r.Metric("gst")
		if rate != wantRate[i] || gst != wantGST[i] {
			t.Errorf("cell %d ran with rate=%v gst=%v, want rate=%v gst=%v", i, rate, gst, wantRate[i], wantGST[i])
		}
		if r.Params.Rate != wantRate[i] || float64(r.Params.GST) != wantGST[i] {
			t.Errorf("cell %d recorded params rate=%v gst=%d, want rate=%v gst=%v", i, r.Params.Rate, r.Params.GST, wantRate[i], wantGST[i])
		}
		// Dimensions the grid does not list still take defaults.
		if p0, _ := r.Metric("p0"); p0 != d.P0 {
			t.Errorf("cell %d: unlisted p0 = %v, want default %v", i, p0, d.P0)
		}
	}
}

// TestSimDropsExplicitZeroRateRunsLossless is the full-protocol
// acceptance check: in a sim/drops sweep over rate=[0, 0.3], the explicit
// rate=0 cell simulates with drop rate exactly 0 — zero delayed
// deliveries — rather than whatever the scenario default is.
func TestSimDropsExplicitZeroRateRunsLossless(t *testing.T) {
	grid, err := ParseGrid(ScenarioSimDrops, "rate=0,0.3")
	if err != nil {
		t.Fatal(err)
	}
	grid.N = 64
	grid.Horizons = []int{4}
	results := SweepGridContext(context.Background(), grid, Options{Workers: 1})
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if results[0].Params.Rate != 0 {
		t.Fatalf("baseline cell params rate = %v, want 0", results[0].Params.Rate)
	}
	if delayed, _ := results[0].Metric("msgs_delayed"); delayed != 0 {
		t.Fatalf("explicit rate=0 cell delayed %v messages, want 0 (ran with a non-zero rate?)", delayed)
	}
	if delayed, _ := results[1].Metric("msgs_delayed"); delayed == 0 {
		t.Fatal("rate=0.3 cell delayed no messages; the sweep dimension is not reaching the simulator")
	}
}

// TestDecodeParamsMarksPresence pins the serving-layer decoder: keys
// present in the JSON document are explicit, absent keys are not.
func TestDecodeParamsMarksPresence(t *testing.T) {
	p, err := DecodeParams([]byte(`{"rate": 0, "gst": 0, "n": 50}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Field{FieldRate, FieldGST, FieldN} {
		if !p.IsExplicit(f) {
			t.Errorf("field %b present in document but not marked explicit", f)
		}
	}
	for _, f := range []Field{FieldP0, FieldBeta0, FieldMode, FieldSeed, FieldHorizon, FieldSample} {
		if p.IsExplicit(f) {
			t.Errorf("field %b absent from document but marked explicit", f)
		}
	}
	if _, err := DecodeParams([]byte(`{"rate": "no"}`)); err == nil {
		t.Fatal("DecodeParams accepted a mistyped field")
	}
}

// TestFieldForKeyCoversEveryGridKey keeps the flag/grid key space and the
// presence bits in sync.
func TestFieldForKeyCoversEveryGridKey(t *testing.T) {
	for _, key := range []string{"p0", "beta0", "mode", "seed", "horizon", "rate", "gst", "n", "sample"} {
		if _, ok := FieldForKey(key); !ok {
			t.Errorf("FieldForKey(%q) unknown", key)
		}
	}
	if _, ok := FieldForKey("workers"); ok {
		t.Error("FieldForKey should not resolve non-parameter keys")
	}
}
