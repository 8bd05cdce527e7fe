package engine

import (
	"context"
	"reflect"
	"testing"
)

// benchGrid is the acceptance workload: a sim/gst shared-prefix grid of 30
// cells at 10,000 validators — 15 horizons x 2 gst values. Neither gst
// heals within any horizon here, so every cell simulates the same
// partitioned prefix under one seed (gst is excluded from the prefix key
// and rate/gst from seed derivation, so the gst dimension shares both
// prefixes and seeds) — cold re-runs the prefix per cell, warm runs it
// once to the deepest horizon and fans all 30 cells out from the 15
// intermediate checkpoints.
func benchGrid() []Cell {
	horizons := make([]int, 0, 15)
	for h := 8; h <= 22; h++ {
		horizons = append(horizons, h)
	}
	return Grid{
		Scenario: "sim/gst",
		P0:       []float64{0.5},
		GSTs:     []int{30, 40},
		Horizons: horizons,
		N:        10000,
	}.Cells()
}

func benchSweep(b *testing.B, warm *WarmStartOptions) []Result {
	b.Helper()
	var last []Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = SweepContext(context.Background(), benchGrid(), Options{
			Workers:   1,
			WarmStart: warm,
		})
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(last))/secs, "cells/sec")
	}
	for i, r := range last {
		if r.Err != "" {
			b.Fatalf("cell %d failed: %s", i, r.Err)
		}
	}
	return last
}

// BenchmarkSweepWarmStart measures the tentpole's payoff: cold sweeps the
// grid cell by cell, warm fans the cells out from the shared snapshot
// tree. Workers is pinned to 1 on both sides so the ratio isolates the
// epochs saved rather than scheduling luck; CI gates warm >= 3x cold
// cells/sec. The warm run is also asserted bit-identical to the cold one —
// the speedup is only admissible because the results are the same.
func BenchmarkSweepWarmStart(b *testing.B) {
	var cold, warm []Result
	b.Run("cold", func(b *testing.B) {
		cold = benchSweep(b, nil)
	})
	b.Run("warm", func(b *testing.B) {
		warm = benchSweep(b, &WarmStartOptions{})
	})
	if cold != nil && warm != nil {
		for i := range cold {
			if !reflect.DeepEqual(cold[i].WithoutMeta(), warm[i].WithoutMeta()) {
				b.Fatalf("cell %d: warm result diverges from cold", i)
			}
		}
	}
}
