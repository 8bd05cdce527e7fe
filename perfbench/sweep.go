package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/gasperleak"
	"repro/internal/engine"
)

// Shape of one sweep grid: per seed, every horizon crossed with every
// heal epoch. Some heals land inside the horizon, some beyond it, so the
// grid mixes cells that drain held traffic after healing with cells that
// only read their checkpoint.
var (
	sweepHorizons = []int{12, 16, 20}
	sweepHeals    = []int{4, 8, 12, 16, 24}
)

// sweepSeedsPerIt is the number of simulation seeds in one grid.
const sweepSeedsPerIt = 2

// sweepSampled is how many cells per run are recomputed cold, outside the
// timer, and compared with their warm-started payloads.
const sweepSampled = 4

// sweepCells is grid number it of a run: sim/gst at 10k validators over
// sweepSeedsPerIt simulation seeds drawn from the workload seed. Cells of
// one seed share every pre-heal epoch, which warm start simulates once.
func sweepCells(seed int64, it int) []engine.Cell {
	rng := rand.New(rand.NewSource(mix(seed, int64(it))))
	var cells []engine.Cell
	for s := 0; s < sweepSeedsPerIt; s++ {
		simSeed := 1 + rng.Int63n(1<<40)
		for _, h := range sweepHorizons {
			for _, g := range sweepHeals {
				cells = append(cells, engine.Cell{Scenario: engine.ScenarioSimGST, Params: engine.Params{
					P0: 0.5, N: 10000, Horizon: h, GST: g, Seed: simSeed,
				}})
			}
		}
	}
	return cells
}

// sweepClient opens a client like `leaksim -warm -workers 2 -store DIR`.
func (b *bench) sweepClient() (*gasperleak.Client, error) {
	dir, err := b.tempDir("sweep-")
	if err != nil {
		return nil, err
	}
	return gasperleak.NewClient(gasperleak.WithRegistry(b.reg), gasperleak.WithWorkers(2),
		gasperleak.WithWarmStart(0), gasperleak.WithResultStore(dir))
}

// runSweep measures warm-started partition-heal grids back to back for
// the measured window, through one client over a fresh result store.
func runSweep(ctx context.Context, b *bench) error {
	var c *gasperleak.Client
	teardown, err := b.setup(func() (func(), error) {
		cl, err := b.sweepClient()
		if err != nil {
			return nil, err
		}
		c = cl
		// Warm the process on a shallow two-cell grid of the same
		// population, on a seed the measured grids never draw.
		warm := []engine.Cell{
			{Scenario: engine.ScenarioSimGST, Params: engine.Params{P0: 0.5, N: 10000, Horizon: 4, GST: 2, Seed: 1 << 41}},
			{Scenario: engine.ScenarioSimGST, Params: engine.Params{P0: 0.5, N: 10000, Horizon: 4, GST: 4, Seed: 1 << 41}},
		}
		for u := range cl.SweepStream(ctx, warm) {
			if u.Result.Err != "" {
				cl.Close()
				return nil, fmt.Errorf("warm-up cell: %s", u.Result.Err)
			}
		}
		return func() { cl.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	var (
		all     []engine.Cell
		results []engine.Result
		cellMS  []float64
		epochs  float64
		warmHit int
		saved   int
		peak    int64
	)
	if err := b.startMeasure(); err != nil {
		return err
	}
	start := time.Now()
	for it, last := 0, time.Duration(0); b.more(time.Since(start), last); it++ {
		itStart := time.Now()
		cells := sweepCells(b.seed, it)
		got := make([]engine.Result, len(cells))
		for u := range c.SweepStream(ctx, cells) {
			got[u.Index] = u.Result
		}
		all = append(all, cells...)
		results = append(results, got...)
		last = time.Since(itStart)
	}
	wall := time.Since(start)
	b.stopMeasure()

	for i, res := range results {
		b.attempted++
		if res.Err != "" {
			b.opError("sweep cell %s: %s", all[i].Params, res.Err)
			continue
		}
		epochs += simulatedEpochs(res)
		if m := res.Meta; m != nil {
			cellMS = append(cellMS, m.DurationMS)
			if w := m.Warm; w != nil {
				if w.Hit {
					warmHit++
				}
				saved += w.EpochsSaved
				peak = max(peak, w.PeakResidentBytes)
			}
		}
		b.checkGolden(all[i], payloadOf(res))
	}
	b.e2e["epochs_per_s"] = epochs / wall.Seconds()
	b.e2e["cells_per_s"] = float64(len(results)) / wall.Seconds()
	b.e2e["latency_p50_ms"] = percentile(cellMS, 0.50)
	b.e2e["latency_p99_ms"] = percentile(cellMS, 0.99)
	b.layer["warmstart.hit_ratio"] = float64(warmHit) / float64(len(results))
	b.layer["warmstart.epochs_saved"] = float64(saved)
	b.layer["warmstart.peak_resident_bytes"] = float64(peak)
	if st, ok := c.StoreStats(); ok {
		b.layer["store.hits"] = float64(st.Hits)
		b.layer["store.puts"] = float64(st.Puts)
		b.layer["store.bytes"] = float64(st.Bytes)
	}
	if len(results) > 0 {
		b.simLayers(results[len(results)-1])
	}
	if warmHit == 0 {
		b.mismatch("no sweep cell was warm-started")
	}

	// Recompute a seeded sample of cells cold, outside the timer: each
	// must equal its warm-started payload.
	rng := rand.New(rand.NewSource(mix(b.seed, -1)))
	for _, i := range rng.Perm(len(all))[:min(sweepSampled, len(all))] {
		if results[i].Err != "" {
			continue
		}
		cold, err := engine.Default.RunContext(ctx, all[i].Scenario, all[i].Params)
		if err != nil {
			b.opFailed("cold recompute of %s: %v", all[i].Params, err)
			continue
		}
		if !bytes.Equal(payloadOf(cold), payloadOf(results[i])) {
			b.opFailed("sweep cell %s: warm payload differs from cold", all[i].Params)
		}
	}
	return nil
}

// mix derives an independent seed from a seed and a stream index
// (splitmix64 finalizer).
func mix(seed, stream int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
