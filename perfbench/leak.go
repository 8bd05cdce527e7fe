package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/gasperleak"
	"repro/internal/engine"
	"repro/internal/store"
)

// leakHorizon is the depth of one leak cell: past the first periodic
// checkpoint (engine.DefaultCheckpointEvery = 500) and deep enough for
// spine compaction to fold blocks, so every layer of the long run works.
const leakHorizon = 600

// leakConflictEpoch is the paper's Table 1 Scenario 5.1 conflict epoch at
// full protocol (10k validators, p0 = 0.5).
const leakConflictEpoch = 4668

// leakCell is Table 1 Scenario 5.1 at full protocol and full spec. The
// workload seed picks the simulation seed (proposer schedule, duty slots).
func leakCell(seed int64, horizon int) engine.Cell {
	return engine.Cell{Scenario: engine.ScenarioSimLeak, Params: engine.Params{
		P0: 0.5, N: 10000, Horizon: horizon, Seed: positiveSeed(seed),
	}}
}

// leakRun runs one cold cell and reports the store's counters after it.
type leakRun func(context.Context, engine.Cell) (engine.Result, store.Stats, store.CheckpointStats, error)

// openLeak opens a fresh result store with durable checkpoints at the
// default interval, as `leaksim -scenario sim/leak -store DIR` runs, and
// returns the function that runs a cell through it plus its closer.
// Untraced runs go through Client.Run. Traced runs take the same steps
// (store lookup, checkpointed run, store write) through the public engine
// and store entry points, so the checkpoint store can be wrapped to time
// its saves.
func (b *bench) openLeak() (leakRun, func(), error) {
	dir, err := b.tempDir("leak-")
	if err != nil {
		return nil, nil, err
	}
	if b.tr == nil {
		c, err := gasperleak.NewClient(gasperleak.WithResultStore(dir), gasperleak.WithCheckpoints(0))
		if err != nil {
			return nil, nil, err
		}
		run := func(ctx context.Context, cell engine.Cell) (engine.Result, store.Stats, store.CheckpointStats, error) {
			res, err := c.Run(ctx, cell.Scenario, cell.Params)
			st, _ := c.StoreStats()
			ck, _ := c.CheckpointStats()
			return res, st, ck, err
		}
		return run, func() { c.Close() }, nil
	}
	results, err := store.OpenResults(dir)
	if err != nil {
		return nil, nil, err
	}
	ckpts := results.Checkpoints()
	run := func(ctx context.Context, cell engine.Cell) (engine.Result, store.Stats, store.CheckpointStats, error) {
		key, _ := engine.CanonicalCellKey(b.reg, cell)
		if res, hit := results.Get(key); hit {
			return res, results.Stats(), ckpts.Stats(), nil
		}
		res, handled, err := engine.RunCheckpointed(ctx, b.reg, cell,
			&engine.CheckpointOptions{Store: tracedCheckpoints{ckpts, b.tr}})
		if err == nil && !handled {
			err = fmt.Errorf("%s was not run checkpointed", cell.Scenario)
		}
		if err == nil {
			err = results.Put(key, res)
		}
		return res, results.Stats(), ckpts.Stats(), err
	}
	return run, func() { results.Close() }, nil
}

// runLeak measures cold full-protocol leak cells back to back for the
// measured window, each through a fresh client and result store.
func runLeak(ctx context.Context, b *bench) error {
	teardown, err := b.setup(func() (func(), error) {
		run, closeFn, err := b.openLeak()
		if err != nil {
			return nil, err
		}
		// Warm the process (heap, page cache) on a shallow cell of the
		// same population before timing.
		if _, _, _, err := run(ctx, leakCell(b.seed, 8)); err != nil {
			closeFn()
			return nil, err
		}
		return closeFn, nil
	})
	if err != nil {
		return err
	}
	teardown()

	horizon := leakHorizon
	if b.toConflict {
		horizon = 0 // the scenario default, past the conflict epoch
	}
	cell := leakCell(b.seed, horizon)
	var (
		cellMS      []float64
		epochs      float64
		busy        time.Duration
		first       []byte
		written     uint64
		storeTotals store.Stats
		final       engine.Result
	)
	if err := b.startMeasure(); err != nil {
		return err
	}
	for last := time.Duration(0); b.more(busy, last); {
		run, closeFn, err := b.openLeak()
		if err != nil {
			b.stopMeasure()
			return err
		}
		b.attempted++
		start := time.Now()
		res, st, ck, err := run(ctx, cell)
		d := time.Since(start)
		closeFn()
		busy += d
		last = d
		if err != nil || res.Err != "" {
			b.opError("leak cell %s: %v %s", cell.Params, err, res.Err)
			continue
		}
		cellMS = append(cellMS, ms(d))
		epochs += simulatedEpochs(res)
		written += ck.Written
		storeTotals.Hits += st.Hits
		storeTotals.Puts += st.Puts
		storeTotals.Bytes += st.Bytes
		final = res
		payload := payloadOf(res)
		if first == nil {
			first = payload
			b.checkGolden(cell, payload)
		} else if !bytes.Equal(payload, first) {
			b.opFailed("leak cell %s: payload differs between identical cold runs", cell.Params)
		}
		if conflict, _ := res.Metric("conflict_epoch"); conflict != 0 && conflict != leakConflictEpoch {
			b.opFailed("leak cell %s: conflict epoch %v, want %d", cell.Params, conflict, leakConflictEpoch)
		}
		if b.toConflict {
			if conflict, _ := res.Metric("conflict_epoch"); conflict != leakConflictEpoch {
				b.opFailed("leak cell %s carried to conflict: conflict epoch %v, want %d", cell.Params, conflict, leakConflictEpoch)
			}
			break
		}
	}
	b.stopMeasure()
	if len(cellMS) == 0 {
		return fmt.Errorf("no leak cell completed")
	}

	secs := busy.Seconds()
	b.e2e["epochs_per_s"] = epochs / secs
	b.e2e["cells_per_s"] = float64(len(cellMS)) / secs
	b.e2e["latency_p50_ms"] = percentile(cellMS, 0.50)
	b.e2e["latency_p99_ms"] = percentile(cellMS, 0.99)
	b.layer["checkpoint.written"] = float64(written)
	b.layer["store.hits"] = float64(storeTotals.Hits)
	b.layer["store.puts"] = float64(storeTotals.Puts)
	b.layer["store.bytes"] = float64(storeTotals.Bytes)
	b.simLayers(final)
	if written == 0 {
		b.mismatch("leak cells wrote no checkpoint")
	}
	return nil
}

// simulatedEpochs is the number of epochs a simulation result covers: its
// horizon, or its conflict epoch when the run stopped there.
func simulatedEpochs(res engine.Result) float64 {
	if c, ok := res.Metric("conflict_epoch"); ok && c > 0 {
		return c
	}
	if v, ok := res.Metric("violation_epoch"); ok && v > 0 {
		return v
	}
	return float64(res.Params.Horizon)
}

// simLayers reports the retention counters a simulation result carries.
func (b *bench) simLayers(res engine.Result) {
	if res.Meta == nil || res.Meta.Sim == nil {
		return
	}
	b.layer["sim.tree_nodes"] = float64(res.Meta.Sim.TreeNodes)
	b.layer["sim.tree_folded"] = float64(res.Meta.Sim.TreeFolded)
	b.layer["sim.engine_bytes"] = float64(res.Meta.Sim.EngineBytes)
}

// positiveSeed maps any workload seed to a positive simulation seed (0
// would mean "scenario default").
func positiveSeed(seed int64) int64 {
	if seed > 0 {
		return seed
	}
	return 1 - seed
}
