package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
)

// Cell is one sweep unit: a named scenario plus its parameters.
type Cell struct {
	Scenario string `json:"scenario"`
	Params   Params `json:"params"`
}

// Grid is a rectangular parameter sweep for one scenario: the cross
// product of the listed dimensions (p0 x beta0 x mode x seed x horizon x
// rate x gst). An empty dimension contributes a single zero value, which
// Registry.Run resolves to the scenario's default.
type Grid struct {
	Scenario string
	P0       []float64
	Beta0    []float64
	Modes    []string
	Seeds    []int64
	Horizons []int
	// Rates sweeps the link-outage probability of protocol-simulator
	// scenarios; GSTs sweeps their partition-heal epoch. Cells differing
	// only in rate or gst share their derived seed (common random
	// numbers), which is the right comparison mode for a robustness
	// sweep: every cell faces the same duty schedule.
	Rates []float64
	GSTs  []int
	// N and Sample apply uniformly to every cell.
	N      int
	Sample int
}

// Cells expands the grid in deterministic order (p0 outermost, horizon
// innermost). When the seed dimension is listed, each cell's seed is
// derived from its base seed and its own coordinates (DeriveSeed), so
// stochastic cells are statistically independent across the grid and
// every cell is fully reproducible from its recorded Params alone —
// results are bit-identical regardless of worker count or grid shape.
// Omitting the seed dimension leaves every cell on the scenario's default
// seed instead: cells then share one random stream (common random
// numbers), which is the right comparison mode for deterministic engines
// and for contrasting parameter values under identical noise.
func (g Grid) Cells() []Cell {
	p0s := g.P0
	if len(p0s) == 0 {
		p0s = []float64{0}
	}
	beta0s := g.Beta0
	if len(beta0s) == 0 {
		beta0s = []float64{0}
	}
	modes := g.Modes
	if len(modes) == 0 {
		modes = []string{""}
	}
	seeds := g.Seeds
	seedSpecified := len(seeds) > 0
	if !seedSpecified {
		seeds = []int64{0}
	}
	horizons := g.Horizons
	if len(horizons) == 0 {
		horizons = []int{0}
	}
	rates := g.Rates
	if len(rates) == 0 {
		rates = []float64{0}
	}
	gsts := g.GSTs
	if len(gsts) == 0 {
		gsts = []int{0}
	}
	// Dimensions the grid actually lists are explicit: a listed value of
	// zero (rate=0 lossless baseline, gst=0 immediate heal, beta0=0
	// honest-only) is the cell's value, not a request for the scenario
	// default.
	var explicit Field
	for _, dim := range []struct {
		listed bool
		f      Field
	}{
		{len(g.P0) > 0, FieldP0},
		{len(g.Beta0) > 0, FieldBeta0},
		{len(g.Modes) > 0, FieldMode},
		{seedSpecified, FieldSeed},
		{len(g.Horizons) > 0, FieldHorizon},
		{len(g.Rates) > 0, FieldRate},
		{len(g.GSTs) > 0, FieldGST},
		{g.N != 0, FieldN},
		{g.Sample != 0, FieldSample},
	} {
		if dim.listed {
			explicit |= dim.f
		}
	}
	cells := make([]Cell, 0, len(p0s)*len(beta0s)*len(modes)*len(seeds)*len(horizons)*len(rates)*len(gsts))
	for _, p0 := range p0s {
		for _, b := range beta0s {
			for _, m := range modes {
				for _, s := range seeds {
					for _, h := range horizons {
						for _, rate := range rates {
							for _, gst := range gsts {
								p := Params{P0: p0, Beta0: b, Mode: m, N: g.N, Horizon: h, Sample: g.Sample, Rate: rate, GST: gst, Explicit: explicit}
								if seedSpecified {
									p.Seed = DeriveSeed(s, p0, b, m, h)
								}
								cells = append(cells, Cell{Scenario: g.Scenario, Params: p})
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// FillFrom pins any unspecified grid dimension (and the uniform N/Sample
// knobs) from the given params, so CLI flags can cover dimensions a sweep
// spec leaves out. A param pins its dimension when it is non-zero or
// marked explicit (an explicit -rate=0 pins the lossless baseline); unset
// zero-valued params leave the dimension unspecified.
func (g Grid) FillFrom(p Params) Grid {
	if len(g.P0) == 0 && (p.P0 != 0 || p.IsExplicit(FieldP0)) {
		g.P0 = []float64{p.P0}
	}
	if len(g.Beta0) == 0 && (p.Beta0 != 0 || p.IsExplicit(FieldBeta0)) {
		g.Beta0 = []float64{p.Beta0}
	}
	if len(g.Modes) == 0 && p.Mode != "" {
		g.Modes = []string{p.Mode}
	}
	if len(g.Seeds) == 0 && p.Seed != 0 {
		g.Seeds = []int64{p.Seed}
	}
	if len(g.Horizons) == 0 && p.Horizon != 0 {
		g.Horizons = []int{p.Horizon}
	}
	if len(g.Rates) == 0 && (p.Rate != 0 || p.IsExplicit(FieldRate)) {
		g.Rates = []float64{p.Rate}
	}
	if len(g.GSTs) == 0 && (p.GST != 0 || p.IsExplicit(FieldGST)) {
		g.GSTs = []int{p.GST}
	}
	if g.N == 0 {
		g.N = p.N
	}
	if g.Sample == 0 {
		g.Sample = p.Sample
	}
	return g
}

// DeriveSeed maps a base seed and a cell's coordinates to the cell's own
// seed: an FNV-1a hash of the coordinates finalized with a splitmix64
// round. Identical coordinates always derive the identical seed, distinct
// coordinates derive (for all practical purposes) independent streams,
// and the result never depends on grid shape or traversal order.
//
// The derivation DELIBERATELY excludes the post-branch dimensions rate
// and gst: cells that differ only there share the pre-branch RNG stream
// (common random numbers — every cell faces the same duty schedule,
// Grid.Rates doc), and warm-started sweeps (Options.WarmStart) depend on
// exactly that to fan such cells out from one shared snapshot. Adding
// rate or gst to this hash would silently break snapshot reuse —
// TestDeriveSeedContract pins the exclusion. Horizon IS included, so
// horizon sweeps share prefixes only when the grid leaves the seed
// dimension unlisted.
func DeriveSeed(base int64, p0, beta0 float64, mode string, horizon int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(base))
	put(math.Float64bits(p0))
	put(math.Float64bits(beta0))
	h.Write([]byte(mode))
	put(uint64(horizon))

	// splitmix64 finalizer.
	z := h.Sum64()
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	seed := int64(z &^ (1 << 63)) // keep it positive for readable CLI output
	if seed == 0 {
		seed = 1
	}
	return seed
}

// ParseGrid parses a sweep spec into a Grid for the named scenario. The
// spec is semicolon-separated key=value items; values are comma lists or
// lo:hi:step ranges (inclusive). Keys: p0, beta0, mode, seed, horizon,
// rate, gst, n, sample.
//
//	p0=0.2:0.8:0.1; beta0=0.1,0.2,0.25; mode=double,semi; seed=1,2,3
func ParseGrid(scenario, spec string) (Grid, error) {
	g := Grid{Scenario: scenario}
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, value, ok := strings.Cut(item, "=")
		if !ok {
			return Grid{}, fmt.Errorf("engine: sweep item %q is not key=value", item)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		var err error
		switch key {
		case "p0":
			g.P0, err = parseFloatList(value)
		case "beta0":
			g.Beta0, err = parseFloatList(value)
		case "mode":
			g.Modes = strings.Split(value, ",")
			for i := range g.Modes {
				g.Modes[i] = strings.TrimSpace(g.Modes[i])
			}
		case "seed":
			g.Seeds, err = parseIntList(value)
		case "horizon":
			var hs []int64
			hs, err = parseIntList(value)
			for _, h := range hs {
				g.Horizons = append(g.Horizons, int(h))
			}
		case "rate":
			g.Rates, err = parseFloatList(value)
		case "gst":
			var gs []int64
			gs, err = parseIntList(value)
			for _, gst := range gs {
				g.GSTs = append(g.GSTs, int(gst))
			}
		case "n":
			var ns []int64
			ns, err = parseIntList(value)
			if err == nil {
				if len(ns) != 1 {
					err = fmt.Errorf("wants a single value, got %q", value)
				} else {
					g.N = int(ns[0])
				}
			}
		case "sample":
			var ss []int64
			ss, err = parseIntList(value)
			if err == nil {
				if len(ss) != 1 {
					err = fmt.Errorf("wants a single value, got %q", value)
				} else {
					g.Sample = int(ss[0])
				}
			}
		default:
			return Grid{}, fmt.Errorf("engine: unknown sweep key %q (want p0, beta0, mode, seed, horizon, rate, gst, n, sample)", key)
		}
		if err != nil {
			return Grid{}, fmt.Errorf("engine: sweep dimension %q: %w", key, err)
		}
	}
	return g, nil
}

// parseFloatList parses "a,b,c" or an inclusive "lo:hi:step" range.
func parseFloatList(value string) ([]float64, error) {
	if strings.Contains(value, ":") {
		parts := strings.Split(value, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("range %q wants lo:hi:step", value)
		}
		var lo, hi, step float64
		for i, dst := range []*float64{&lo, &hi, &step} {
			tok := strings.TrimSpace(parts[i])
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, fmt.Errorf("range %q: bad number %q", value, tok)
			}
			*dst = v
		}
		if step <= 0 || hi < lo {
			return nil, fmt.Errorf("range %q wants lo <= hi and step > 0", value)
		}
		var out []float64
		// The epsilon keeps the endpoint inclusive under float rounding.
		for i := 0; ; i++ {
			v := lo + float64(i)*step
			if v > hi+step*1e-9 {
				break
			}
			out = append(out, v)
		}
		return out, nil
	}
	var out []float64
	for _, s := range strings.Split(value, ",") {
		tok := strings.TrimSpace(s)
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q in %q", tok, value)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseIntList parses "a,b,c" or an inclusive "lo:hi:step" range.
func parseIntList(value string) ([]int64, error) {
	if strings.Contains(value, ":") {
		parts := strings.Split(value, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("range %q wants lo:hi:step", value)
		}
		var lo, hi, step int64
		for i, dst := range []*int64{&lo, &hi, &step} {
			tok := strings.TrimSpace(parts[i])
			v, err := strconv.ParseInt(tok, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("range %q: bad integer %q", value, tok)
			}
			*dst = v
		}
		if step <= 0 || hi < lo {
			return nil, fmt.Errorf("range %q wants lo <= hi and step > 0", value)
		}
		var out []int64
		for v := lo; v <= hi; v += step {
			out = append(out, v)
		}
		return out, nil
	}
	var out []int64
	for _, s := range strings.Split(value, ",") {
		tok := strings.TrimSpace(s)
		v, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in %q", tok, value)
		}
		out = append(out, v)
	}
	return out, nil
}

// Options configures a sweep.
type Options struct {
	// Workers bounds concurrency; <= 0 means runtime.NumCPU().
	Workers int
	// Registry resolves scenario names; nil means the default registry.
	Registry *Registry
	// WarmStart, when non-nil, turns on the snapshot-tree warm start:
	// cells of ForkableScenario scenarios that share a parameter prefix
	// fan out from one shared simulated prefix instead of each
	// re-simulating epoch 0. Results are bit-identical to the cold sweep;
	// only wall clock and Result.Meta change.
	WarmStart *WarmStartOptions
	// Checkpoint, when non-nil (with a non-nil Store), runs checkpointable
	// cells under the durable-checkpoint policy: each cell probes the
	// store for its newest valid checkpoint and resumes from it, persists
	// a fresh checkpoint every interval while running, and deletes its
	// checkpoint on completion. It composes with WarmStart: the in-memory
	// snapshot tree amortizes shared prefixes within a process, durable
	// checkpoints survive process death. Every cell a warm sweep runs on
	// its own (non-forkable, or sharing its prefix with no other cell) is
	// checkpointed; cells resumed from a shared in-memory prefix make no
	// durable writes.
	Checkpoint *CheckpointOptions
	// Dispatch, when non-nil, takes over cell execution entirely:
	// SweepStream hands it the cells and the remaining options (Dispatch
	// itself cleared, so a dispatcher may recurse into SweepStream for
	// local execution) and returns its stream. This is the scale-out hook —
	// the serving layer's coordinator routes cells to worker processes
	// through it — and it carries the same contract as SweepStream: one
	// Update per cell, payloads bit-identical to a local sweep, the
	// channel closed after the last cell, prompt close after cancellation.
	Dispatch DispatchFunc
}

// DispatchFunc executes a sweep's cells somewhere other than the local
// worker pool (see Options.Dispatch). Update.Index is the cell's position
// in the input slice, exactly as SweepStream reports it.
type DispatchFunc func(ctx context.Context, cells []Cell, opt Options) <-chan Update

// Update is one event of a streaming sweep: a finished cell's result plus
// progress counts.
type Update struct {
	// Index is the cell's position in the input slice.
	Index int `json:"index"`
	// Result is the cell's outcome. A failed or cancelled cell records
	// its error in Result.Err instead of aborting the sweep.
	Result Result `json:"result"`
	// Completed counts the cells finished so far, this one included.
	Completed int `json:"completed"`
	// Total is the sweep's cell count.
	Total int `json:"total"`
}

// SweepStream runs every cell through the registry over a bounded worker
// pool and yields one Update per cell as it completes (completion order,
// not cell order). Cancellation is cooperative: once ctx is cancelled,
// cells already running return early (ContextRunner scenarios observe ctx
// inside their loops) and cells not yet started are marked with the
// context error without being computed, so the stream closes promptly.
//
// The caller must drain the channel; it is closed after the last cell.
// Each computed cell's Result carries its wall-clock duration in
// Result.Meta. The result payloads (Meta aside) are bit-identical for any
// worker count, with or without WarmStart and Checkpoint.
func SweepStream(ctx context.Context, cells []Cell, opt Options) <-chan Update {
	if opt.Dispatch != nil {
		d := opt.Dispatch
		opt.Dispatch = nil
		return d(ctx, cells, opt)
	}
	return sweepLocal(ctx, cells, opt)
}

// SweepContext collects a SweepStream into one Result per cell, in cell
// order. After cancellation it returns promptly with every unfinished
// cell's Err set to the context error.
func SweepContext(ctx context.Context, cells []Cell, opt Options) []Result {
	results := make([]Result, len(cells))
	for u := range SweepStream(ctx, cells, opt) {
		results[u.Index] = u.Result
	}
	return results
}

// SweepGridContext expands the grid and runs it with cooperative
// cancellation.
func SweepGridContext(ctx context.Context, g Grid, opt Options) []Result {
	return SweepContext(ctx, g.Cells(), opt)
}

// FirstError returns the first per-cell error of a sweep, if any.
func FirstError(results []Result) error {
	for _, r := range results {
		if r.Err != "" {
			return fmt.Errorf("engine: scenario %s (%s): %s", r.Scenario, r.Params, r.Err)
		}
	}
	return nil
}

// BounceMCGrid builds the standard bouncing Monte-Carlo ensemble: one
// bounce-mc cell per run with consecutive base seeds (each cell's actual
// seed derived from its coordinates), sampled every `sample` epochs
// (sample = 0 evaluates the single epoch `horizon` instead).
func BounceMCGrid(p0, beta0 float64, n, runs int, seed int64, sample, horizon int) Grid {
	seeds := make([]int64, runs)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	return Grid{
		Scenario: ScenarioBounceMC,
		P0:       []float64{p0},
		Beta0:    []float64{beta0},
		Seeds:    seeds,
		Horizons: []int{horizon},
		N:        n,
		Sample:   sample,
	}
}

// Table1Cells lists the paper's Table 1: all five scenarios at their
// reference parameters, as sweep cells over the registry.
func Table1Cells(seed int64) []Cell {
	return []Cell{
		{Scenario: ScenarioPartition, Params: Params{P0: 0.5}},
		{Scenario: ScenarioDoubleVote, Params: Params{P0: 0.5, Beta0: 0.2}},
		{Scenario: ScenarioSemiActive, Params: Params{P0: 0.5, Beta0: 0.2}},
		{Scenario: ScenarioDelay, Params: Params{P0: 0.5, Beta0: 0.25}},
		{Scenario: ScenarioBounce, Params: Params{P0: 0.5, Beta0: 0.33, Seed: seed}},
	}
}
