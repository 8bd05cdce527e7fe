package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// TestWrapperImplementsExactlyTheInnerInterfaces pins the transparency
// contract: routing in the registry, the warm-start scheduler and the
// checkpoint runner depends on these type assertions.
func TestWrapperImplementsExactlyTheInnerInterfaces(t *testing.T) {
	reg, err := (&tracer{}).tracedRegistry()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[[3]bool]bool{}
	for _, name := range engine.Default.Names() {
		inner, _ := engine.Default.Lookup(name)
		outer, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("%s missing from the traced registry", name)
		}
		in := implemented(inner)
		if out := implemented(outer); out != in {
			t.Errorf("%s: wrapper implements %v, scenario %v (ContextRunner, Forkable, Checkpointable)", name, out, in)
		}
		kinds[in] = true
		if outer.Name() != inner.Name() || outer.Defaults() != inner.Defaults() {
			t.Errorf("%s: wrapper changes Name or Defaults", name)
		}
	}
	if len(kinds) < 3 {
		t.Errorf("registry covers %d interface combinations, want plain, context and checkpointable", len(kinds))
	}
}

func implemented(s engine.Scenario) [3]bool {
	_, c := s.(engine.ContextRunner)
	_, f := s.(engine.ForkableScenario)
	_, k := s.(engine.CheckpointableScenario)
	return [3]bool{c, f, k}
}

// TestTracedPayloadsEqualUntraced runs a warm sweep and a checkpointed
// cell through the traced registry and the default one: payloads must be
// identical, and the spans must have been recorded.
func TestTracedPayloadsEqualUntraced(t *testing.T) {
	tr := &tracer{}
	reg, err := tr.tracedRegistry()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var cells []engine.Cell
	for _, g := range []int{2, 4, 6} {
		cells = append(cells, engine.Cell{Scenario: engine.ScenarioSimGST,
			Params: engine.Params{P0: 0.5, N: 64, Horizon: 6, GST: g, Seed: 9}})
	}
	cells = append(cells, engine.Cell{Scenario: engine.ScenarioAnalyticConflict, Params: engine.Params{P0: 0.4}})
	warm := &engine.WarmStartOptions{}
	traced := engine.SweepContext(ctx, cells, engine.Options{Workers: 2, Registry: reg, WarmStart: warm})
	plain := engine.SweepContext(ctx, cells, engine.Options{Workers: 2, WarmStart: warm})
	for i := range cells {
		if traced[i].Err != "" || !bytes.Equal(payloadOf(traced[i]), payloadOf(plain[i])) {
			t.Errorf("cell %d: traced %s differs from untraced %s", i, payloadOf(traced[i]), payloadOf(plain[i]))
		}
		if w := traced[i].Meta.Warm; cells[i].Scenario == engine.ScenarioSimGST && (w == nil || !w.Hit) {
			t.Errorf("cell %d: traced sweep did not warm-start (%+v)", i, w)
		}
	}
	if tr.prefix <= 0 || tr.resume <= 0 || len(tr.cellMS) != len(cells) {
		t.Errorf("spans: prefix %v, resume %v, %d cells; want both positive and %d cells", tr.prefix, tr.resume, len(tr.cellMS), len(cells))
	}

	leak := engine.Cell{Scenario: engine.ScenarioSimLeak, Params: engine.Params{P0: 0.5, N: 16, Horizon: 40, Seed: 2}}
	results, err := store.OpenResults(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer results.Close()
	res, handled, err := engine.RunCheckpointed(ctx, reg, leak,
		&engine.CheckpointOptions{Every: 16, Store: tracedCheckpoints{results.Checkpoints(), tr}})
	if err != nil || !handled {
		t.Fatalf("checkpointed traced run: handled %v, err %v", handled, err)
	}
	cold, err := engine.Default.RunContext(ctx, leak.Scenario, leak.Params)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payloadOf(res), payloadOf(cold)) {
		t.Errorf("checkpointed traced payload %s differs from cold %s", payloadOf(res), payloadOf(cold))
	}
	if tr.ckptSave <= 0 || tr.encode <= 0 {
		t.Errorf("checkpoint spans not recorded: save %v, encode %v", tr.ckptSave, tr.encode)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	children := [][2]time.Time{
		{at(10), at(40)}, // overlaps the next child
		{at(30), at(50)},
		{at(80), at(120)}, // runs past the span's end
		{at(0), at(5)},
	}
	if got, want := selfTime(at(0), at(100), children), 35*time.Millisecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(at(0), at(100), nil); got != 100*time.Millisecond {
		t.Errorf("selfTime without children = %v", got)
	}
}

// TestBenchmarkJSONMatchesMetricLists keeps BENCHMARK.json's metric names
// and units in step with what the benchmark prints.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
