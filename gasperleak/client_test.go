package gasperleak_test

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/gasperleak"
	"repro/internal/engine"
)

func TestNewClientOptionValidation(t *testing.T) {
	if _, err := gasperleak.NewClient(gasperleak.WithWorkers(-3)); err == nil ||
		!strings.Contains(err.Error(), "-3") || !strings.Contains(err.Error(), "workers") {
		t.Errorf("WithWorkers(-3) err = %v, want a clear validation error", err)
	}
	if _, err := gasperleak.NewClient(gasperleak.WithRegistry(nil)); err == nil {
		t.Error("WithRegistry(nil) must error")
	}
	c, err := gasperleak.NewClient(gasperleak.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers() != 4 {
		t.Errorf("Workers() = %d, want 4", c.Workers())
	}
}

// TestClientMatchesDeprecatedSurface: the client produces the same result
// payloads as the engine entry points the retired v1 shims wrapped
// (engine.Default.RunContext, engine.SweepContext) over the same registry.
func TestClientMatchesDeprecatedSurface(t *testing.T) {
	c, err := gasperleak.NewClient(gasperleak.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	p := gasperleak.ScenarioParams{Mode: "slashing", Beta0: 0.2}
	res, err := c.Run(ctx, "analytic/conflict", p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Default.RunContext(ctx, "analytic/conflict", p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.WithoutMeta(), want.WithoutMeta()) {
		t.Errorf("client run diverges from the engine: %+v vs %+v", res, want)
	}

	cells := gasperleak.Table1Cells(1)
	got := gasperleak.StripScenarioMeta(c.Sweep(ctx, cells))
	wantSweep := engine.StripMeta(engine.SweepContext(ctx, cells, engine.Options{Workers: 2}))
	if !reflect.DeepEqual(got, wantSweep) {
		t.Error("client sweep diverges from the engine")
	}
}

func TestClientSweepStreamAndThroughput(t *testing.T) {
	c, err := gasperleak.NewClient(gasperleak.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	g, err := gasperleak.ParseGrid("analytic/threshold", "p0=0.3,0.5,0.7")
	if err != nil {
		t.Fatal(err)
	}
	cells := g.Cells()
	start := time.Now()
	var results []gasperleak.ScenarioResult
	for u := range c.SweepStream(context.Background(), cells) {
		if u.Total != len(cells) {
			t.Fatalf("Total = %d, want %d", u.Total, len(cells))
		}
		results = append(results, u.Result)
	}
	if len(results) != len(cells) {
		t.Fatalf("streamed %d results, want %d", len(results), len(cells))
	}
	line := gasperleak.SweepThroughput(results, time.Since(start))
	if !strings.Contains(line, "cells/sec") {
		t.Errorf("throughput line = %q", line)
	}
}

func TestClientScenariosAndCancellation(t *testing.T) {
	c, err := gasperleak.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	infos := c.Scenarios()
	if len(infos) != len(gasperleak.ScenarioNames()) {
		t.Fatalf("Scenarios() = %d entries, want %d", len(infos), len(gasperleak.ScenarioNames()))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx, "leaksim", gasperleak.ScenarioParams{}); err == nil {
		t.Error("cancelled run must error")
	}
	results := c.Sweep(ctx, gasperleak.Table1Cells(1))
	if len(results) != 5 {
		t.Fatalf("cancelled sweep results = %d, want 5", len(results))
	}
	for i, r := range results {
		if !strings.Contains(r.Err, context.Canceled.Error()) {
			t.Errorf("cell %d: Err = %q, want context error", i, r.Err)
		}
	}
}
