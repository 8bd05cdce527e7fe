package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// fabricWorker is one worker process of a test fabric, optionally rigged
// to crash: after serving killAfter sweep requests it aborts every further
// connection mid-request, which is what a killed process looks like to the
// coordinator.
type fabricWorker struct {
	ts        *httptest.Server
	killAfter int64 // sweep requests served before crashing; negative = reliable
	served    atomic.Int64
}

func newFabricWorker(t *testing.T, reg *engine.Registry, killAfter int64) *fabricWorker {
	t.Helper()
	s, err := New(Config{Registry: reg, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	fw := &fabricWorker{killAfter: killAfter}
	h := s.Handler()
	fw.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sweep" {
			if n := fw.served.Add(1); fw.killAfter >= 0 && n > fw.killAfter {
				panic(http.ErrAbortHandler) // the "process" is gone mid-request
			}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(fw.ts.Close)
	return fw
}

// fabricCells builds an n-cell grid of the counted scenario.
func fabricCells(n int) []engine.Cell {
	cells := make([]engine.Cell, n)
	for i := range cells {
		cells[i] = engine.Cell{Scenario: "counted", Params: engine.Params{Seed: int64(i + 1)}}
	}
	return cells
}

// checkFabricSweep posts the cells to the coordinator and asserts the
// acceptance criteria: no client-visible errors, deterministic cell-order
// stream, payload bit-identical to a single-process sweep.
func checkFabricSweep(t *testing.T, coordURL string, cells []engine.Cell, want []engine.Result) []engine.Update {
	t.Helper()
	updates := decodeNDJSON(t, postJSON(t, coordURL+"/sweep", map[string]any{"cells": cells}))
	if len(updates) != len(cells) {
		t.Fatalf("streamed %d updates, want %d", len(updates), len(cells))
	}
	got := make([]engine.Result, len(cells))
	for pos, u := range updates {
		if u.Index != pos {
			t.Errorf("update %d carries index %d; coordinator streams must be in cell order", pos, u.Index)
		}
		if u.Result.Err != "" {
			t.Errorf("cell %d surfaced an error to the client: %s", u.Index, u.Result.Err)
		}
		got[u.Index] = u.Result
	}
	if !reflect.DeepEqual(engine.StripMeta(got), engine.StripMeta(want)) {
		t.Error("sharded sweep payload diverges from single-process sweep")
	}
	return updates
}

// TestCoordinatorShardsSweep: the happy path — every cell computed by a
// remote worker, merged bit-identically in cell order.
func TestCoordinatorShardsSweep(t *testing.T) {
	var runs atomic.Int64
	reg := countedRegistry(&runs)
	cells := fabricCells(8)
	want := engine.SweepContext(context.Background(), cells, engine.Options{Registry: reg})
	runs.Store(0)

	w1 := newFabricWorker(t, reg, -1)
	w2 := newFabricWorker(t, reg, -1)
	coord, ts := storeServer(t, Config{
		Registry:  reg,
		CacheSize: -1,
		Shards:    []string{w1.ts.URL, w2.ts.URL},
	})

	checkFabricSweep(t, ts.URL, cells, want)
	if got := runs.Load(); got != int64(len(cells)) {
		t.Errorf("fabric ran %d cells, want %d", got, len(cells))
	}
	if got := coord.metrics.cellsRemote.Load(); got != uint64(len(cells)) {
		t.Errorf("cells_remote = %d, want %d — every cell should be computed remotely", got, len(cells))
	}
	if w1.served.Load() == 0 || w2.served.Load() == 0 {
		t.Errorf("dispatch skipped a worker: served %d / %d", w1.served.Load(), w2.served.Load())
	}
	if lost := coord.metrics.workersLost.Load(); lost != 0 {
		t.Errorf("workers_lost = %d with reliable workers", lost)
	}
}

// TestCoordinatorCancelledMarksCells: a sweep cancelled before dispatch
// streams every cell, in cell order and without computing any, marked
// with the context error on the defaulted params it would have run.
func TestCoordinatorCancelledMarksCells(t *testing.T) {
	var runs atomic.Int64
	reg := countedRegistry(&runs)
	w := newFabricWorker(t, reg, -1)
	c, err := newCoordinator([]string{w.ts.URL}, 0, 0, newMetrics())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := fabricCells(4)
	pos := 0
	for u := range c.dispatch(ctx, cells, engine.Options{Registry: reg}) {
		if u.Index != pos {
			t.Errorf("update %d carries index %d, want cell order", pos, u.Index)
		}
		pos++
		if u.Result.Err != context.Canceled.Error() {
			t.Errorf("cell %d: err %q, want the context error", u.Index, u.Result.Err)
		}
		if u.Result.Params.N != 10 || u.Result.Params.Seed != cells[u.Index].Params.Seed {
			t.Errorf("cell %d: params %+v, want the defaulted cell params", u.Index, u.Result.Params)
		}
	}
	if pos != len(cells) {
		t.Fatalf("streamed %d updates, want %d", pos, len(cells))
	}
	if got := runs.Load(); got != 0 {
		t.Errorf("cancelled sweep computed %d cells, want 0", got)
	}
}

// TestCoordinatorFaultInjection is the randomized acceptance test: across
// trials with random worker counts, a random worker is killed after a
// random number of cells mid-sweep; the merged payload must stay
// bit-identical to a single-process sweep with zero client-visible errors,
// for every failure schedule (including the sole worker dying, which
// exercises the local fallback).
func TestCoordinatorFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(0xfab41c))
	for trial := 0; trial < 6; trial++ {
		workers := 1 + rng.Intn(3)
		killIdx := rng.Intn(workers)
		killAfter := int64(rng.Intn(4))
		t.Logf("trial %d: %d workers, worker %d dies after %d cells", trial, workers, killIdx, killAfter)

		var runs atomic.Int64
		reg := countedRegistry(&runs)
		cells := fabricCells(10)
		want := engine.SweepContext(context.Background(), cells, engine.Options{Registry: reg})

		shards := make([]string, workers)
		pool := make([]*fabricWorker, workers)
		for i := range pool {
			after := int64(-1)
			if i == killIdx {
				after = killAfter
			}
			pool[i] = newFabricWorker(t, reg, after)
			shards[i] = pool[i].ts.URL
		}
		coord, ts := storeServer(t, Config{Registry: reg, CacheSize: -1, Shards: shards})

		checkFabricSweep(t, ts.URL, cells, want)
		// The rigged worker crashes only if dispatch actually sent it more
		// than killAfter cells; when it did, the coordinator must have
		// retired it and requeued the lost cell.
		crashed := pool[killIdx].served.Load() > killAfter
		if lost := coord.metrics.workersLost.Load(); crashed && lost != 1 {
			t.Errorf("trial %d: workers_lost = %d, want exactly the rigged one", trial, lost)
		} else if !crashed && lost != 0 {
			t.Errorf("trial %d: workers_lost = %d with no crash", trial, lost)
		}
		if requeued := coord.metrics.cellsRequeued.Load(); crashed && requeued == 0 {
			t.Errorf("trial %d: no cell was requeued off the dead worker", trial)
		}
	}
}

// TestCoordinatorAllWorkersDeadFallsBackLocal: a total worker outage
// degrades throughput, not correctness — the coordinator finishes the grid
// in-process, and stays correct on the next sweep too (dead workers are
// remembered across requests).
func TestCoordinatorAllWorkersDeadFallsBackLocal(t *testing.T) {
	var runs atomic.Int64
	reg := countedRegistry(&runs)
	cells := fabricCells(6)
	want := engine.SweepContext(context.Background(), cells, engine.Options{Registry: reg})

	dead := newFabricWorker(t, reg, 0) // crashes on its first cell
	coord, ts := storeServer(t, Config{Registry: reg, CacheSize: -1, Shards: []string{dead.ts.URL}})

	checkFabricSweep(t, ts.URL, cells, want)
	if lost := coord.metrics.workersLost.Load(); lost != 1 {
		t.Errorf("workers_lost = %d, want 1", lost)
	}
	// Second sweep: no alive workers from the start, straight to local.
	checkFabricSweep(t, ts.URL, cells, want)
	if remote := coord.metrics.cellsRemote.Load(); remote != 0 {
		t.Errorf("cells_remote = %d after a total outage, want 0", remote)
	}
}

// TestQueueFullRejects: a request that would exceed the admission bound is
// refused with 429 + Retry-After instead of queued without limit, and the
// slots are released when the admitted work finishes.
func TestQueueFullRejects(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	reg := engine.NewRegistry()
	reg.MustRegister(engine.NewContextScenario("gate", "blocks until released",
		engine.Params{P0: 0.5},
		func(ctx context.Context, p engine.Params) (engine.Result, error) {
			started <- struct{}{}
			select {
			case <-ctx.Done():
				return engine.Result{}, ctx.Err()
			case <-release:
				return engine.Result{}, nil
			}
		}))
	// Workers: 2 so both gate cells block concurrently even on one CPU.
	s, ts := storeServer(t, Config{Registry: reg, CacheSize: -1, QueueDepth: 2, Workers: 2})

	sweepDone := make(chan []engine.Update, 1)
	go func() {
		body := map[string]any{"cells": []engine.Cell{
			{Scenario: "gate", Params: engine.Params{Seed: 1}},
			{Scenario: "gate", Params: engine.Params{Seed: 2}},
		}}
		sweepDone <- decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", body))
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("gated sweep never started")
		}
	}

	resp := postJSON(t, ts.URL+"/run", map[string]any{"scenario": "gate", "params": engine.Params{Seed: 3}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 while the queue is full", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}
	if got := s.metrics.rejected.Load(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}

	close(release)
	select {
	case updates := <-sweepDone:
		if len(updates) != 2 {
			t.Errorf("gated sweep streamed %d updates, want 2", len(updates))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gated sweep never finished")
	}
	if depth := s.metrics.admitted.Load(); depth != 0 {
		t.Errorf("admitted = %d after the sweep drained, want 0", depth)
	}
}

// TestBodyLimitRejects: an oversized request body is refused with 413.
func TestBodyLimitRejects(t *testing.T) {
	_, ts := storeServer(t, Config{MaxBodyBytes: 128})

	big := map[string]any{"scenario": strings.Repeat("x", 256), "params": engine.Params{}}
	resp := postJSON(t, ts.URL+"/run", big)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 for an oversized body", resp.StatusCode)
	}

	small := map[string]any{"scenario": "nope"}
	resp2 := postJSON(t, ts.URL+"/run", small)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want the limit to pass a small body through", resp2.StatusCode)
	}
}

// TestMetricsEndpoint: GET /metrics reports the tier counters, queue
// state, per-scenario timing, and (in coordinator mode) the worker ledger.
func TestMetricsEndpoint(t *testing.T) {
	var runs atomic.Int64
	reg := countedRegistry(&runs)
	w := newFabricWorker(t, reg, -1)
	_, ts := storeServer(t, Config{
		Registry: reg,
		StoreDir: t.TempDir(),
		Shards:   []string{w.ts.URL},
	})

	cells := fabricCells(3)
	decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", map[string]any{"cells": cells}))
	decodeNDJSON(t, postJSON(t, ts.URL+"/sweep", map[string]any{"cells": cells})) // all cached now

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Cells.FromLRU != 3 {
		t.Errorf("cells.from_lru = %d, want the repeat sweep served from memory", m.Cells.FromLRU)
	}
	if m.Queue.Limit != DefaultQueueDepth || m.Queue.Depth != 0 {
		t.Errorf("queue = %+v, want default limit and a drained depth", m.Queue)
	}
	if m.Store == nil || m.Store.Puts != 3 {
		t.Errorf("store = %+v, want 3 persisted cells", m.Store)
	}
	if m.Coordinator == nil || m.Coordinator.Remote != 3 || len(m.Coordinator.Workers) != 1 {
		t.Errorf("coordinator = %+v, want 3 remote cells on 1 worker", m.Coordinator)
	}
	// The worker computed the cells, so the coordinator's own computed
	// counter stays zero while the scenario map stays empty.
	if m.Cells.Computed != 0 {
		t.Errorf("cells.computed = %d on the coordinator, want 0", m.Cells.Computed)
	}
}
