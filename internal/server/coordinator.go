package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// DefaultShardInflight bounds concurrently dispatched cells per worker
// when Config.ShardInflight is 0.
const DefaultShardInflight = 2

// worker is one remote serve process the coordinator dispatches to.
type worker struct {
	url  string
	dead atomic.Bool
	// served/failed count this worker's dispatch outcomes.
	served atomic.Uint64
	failed atomic.Uint64
}

// coordinator is the scale-out half of the sweep fabric: with
// Config.Shards set, the server stops computing sweep cells in-process and
// instead dispatches them — cell by cell, over the same NDJSON POST /sweep
// wire protocol every serve instance already speaks — to a set of worker
// processes (a plain `serve` instance is a valid worker). Cells are
// independent and seed-deterministic, so the scheduling policy is free:
// bounded in-flight cells per worker, dead or slow workers requeue their
// cells onto the survivors, and when every worker is gone the coordinator
// computes the remainder itself. Results are merged in deterministic cell
// order, so the client-visible stream is bit-identical (Meta aside) to a
// single-process run for any worker set and any failure/requeue schedule.
type coordinator struct {
	workers     []*worker
	inflight    int           // per-worker concurrent cells
	cellTimeout time.Duration // 0 = unbounded
	client      *http.Client
	metrics     *metrics
}

// newCoordinator validates the worker URLs and builds the dispatcher.
func newCoordinator(shards []string, inflight int, cellTimeout time.Duration, m *metrics) (*coordinator, error) {
	if inflight <= 0 {
		inflight = DefaultShardInflight
	}
	c := &coordinator{
		inflight:    inflight,
		cellTimeout: cellTimeout,
		client:      &http.Client{},
		metrics:     m,
	}
	for _, raw := range shards {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("server: shard worker %q is not an absolute URL", raw)
		}
		c.workers = append(c.workers, &worker{url: strings.TrimRight(raw, "/")})
	}
	if len(c.workers) == 0 {
		return nil, fmt.Errorf("server: coordinator mode wants at least one worker URL")
	}
	return c, nil
}

// workerStats is the per-worker slice of GET /metrics.
type workerStats struct {
	URL    string `json:"url"`
	Dead   bool   `json:"dead"`
	Served uint64 `json:"served"`
	Failed uint64 `json:"failed"`
}

func (c *coordinator) stats() []workerStats {
	out := make([]workerStats, len(c.workers))
	for i, w := range c.workers {
		out[i] = workerStats{URL: w.url, Dead: w.dead.Load(), Served: w.served.Load(), Failed: w.failed.Load()}
	}
	return out
}

// dispatch implements engine.DispatchFunc: it streams one Update per cell
// in CELL ORDER (index-ascending), buffering out-of-order completions —
// the ordering is what makes the coordinator's output deterministic for
// any worker set and any failure/requeue schedule.
func (c *coordinator) dispatch(ctx context.Context, cells []engine.Cell, opt engine.Options) <-chan engine.Update {
	out := make(chan engine.Update)
	go func() {
		defer close(out)
		c.run(ctx, cells, opt, out)
	}()
	return out
}

type indexedResult struct {
	i   int
	res engine.Result
}

func (c *coordinator) run(ctx context.Context, cells []engine.Cell, opt engine.Options, out chan<- engine.Update) {
	n := len(cells)
	if n == 0 {
		return
	}
	results := make([]*engine.Result, n)
	emitted := 0
	emitInOrder := func() {
		for emitted < n && results[emitted] != nil {
			out <- engine.Update{Index: emitted, Result: *results[emitted], Completed: emitted + 1, Total: n}
			emitted++
		}
	}

	// Remote phase. jobs holds every not-yet-served cell index; a failed
	// worker's goroutines push their cells back before exiting, so the
	// channel never holds more than n indices. finished is buffered so a
	// worker is never blocked on the collector.
	jobs := make(chan int, n)
	for i := range cells {
		jobs <- i
	}
	finished := make(chan indexedResult, n)
	quit := make(chan struct{})
	var quitOnce sync.Once
	stop := func() { quitOnce.Do(func() { close(quit) }) }

	alive := int64(0)
	for _, w := range c.workers {
		if !w.dead.Load() {
			alive++
		}
	}
	aliveCount := atomic.Int64{}
	aliveCount.Store(alive)
	if alive == 0 {
		stop()
	}

	var wg sync.WaitGroup
	for _, w := range c.workers {
		if w.dead.Load() {
			continue
		}
		for k := 0; k < c.inflight; k++ {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for {
					select {
					case <-quit:
						return
					case <-ctx.Done():
						return
					case i := <-jobs:
						if w.dead.Load() {
							jobs <- i
							return
						}
						c.metrics.remoteInflight.Add(1)
						res, err := c.runCell(ctx, w, cells[i], opt)
						c.metrics.remoteInflight.Add(-1)
						if err != nil {
							// The worker failed or stalled: requeue the
							// cell for the survivors and retire the
							// worker. Retrying is always safe — cells are
							// seed-deterministic, so a survivor (or the
							// local fallback) recomputes the identical
							// payload.
							w.failed.Add(1)
							c.metrics.cellsRequeued.Add(1)
							jobs <- i
							if w.dead.CompareAndSwap(false, true) {
								c.metrics.workersLost.Add(1)
								if aliveCount.Add(-1) == 0 {
									stop()
								}
							}
							return
						}
						w.served.Add(1)
						c.metrics.cellsRemote.Add(1)
						finished <- indexedResult{i, res}
					}
				}
			}(w)
		}
	}

	remaining := n
collect:
	for remaining > 0 {
		select {
		case r := <-finished:
			results[r.i] = &r.res
			remaining--
			emitInOrder()
		case <-quit: // every worker died; fall through to the local phase
			break collect
		case <-ctx.Done():
			break collect
		}
	}
	stop()
	wg.Wait()

	// Drain stragglers a worker finished after the collector left the
	// loop, then gather the cells nobody served.
	for {
		select {
		case r := <-finished:
			if results[r.i] == nil {
				results[r.i] = &r.res
				remaining--
			}
			continue
		default:
		}
		break
	}
	var leftover []int
	for {
		select {
		case i := <-jobs:
			leftover = append(leftover, i)
			continue
		default:
		}
		break
	}

	// Local fallback: with no workers left, the coordinator is still a
	// complete serve process — finish the grid in-process so a total
	// worker outage degrades throughput, not correctness. After
	// cancellation the engine marks every unserved cell with the context
	// error without computing it, exactly as it marks unstarted cells of
	// an in-process sweep.
	if len(leftover) > 0 {
		local := make([]engine.Cell, len(leftover))
		for k, i := range leftover {
			local[k] = cells[i]
		}
		for u := range engine.SweepStream(ctx, local, opt) {
			res := u.Result
			if res.Err == "" && res.Meta != nil {
				c.metrics.recordComputed(res.Scenario, res.Meta.DurationMS)
			}
			results[leftover[u.Index]] = &res
			emitInOrder()
		}
	}
	emitInOrder()
}

// runCell executes one cell on a remote worker over the standard NDJSON
// /sweep protocol (a single-cell sweep). Transport-level trouble — refused
// connection, non-200 status, a stream that ends without the cell's
// update, undecodable NDJSON, or an overrun of the per-cell timeout —
// returns an error and condemns the worker; a result whose own Err is set
// (an invalid cell) is a legitimate payload and passes through, identical
// to what a local run would produce.
func (c *coordinator) runCell(ctx context.Context, w *worker, cell engine.Cell, opt engine.Options) (engine.Result, error) {
	if c.cellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cellTimeout)
		defer cancel()
	}
	body, err := json.Marshal(sweepRequest{
		Cells: []engine.Cell{cell},
		Warm:  boolPtr(opt.WarmStart != nil),
	})
	if err != nil {
		return engine.Result{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/sweep", bytes.NewReader(body))
	if err != nil {
		return engine.Result{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return engine.Result{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return engine.Result{}, fmt.Errorf("worker %s: status %d", w.url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return engine.Result{}, fmt.Errorf("worker %s: %w", w.url, err)
		}
		return engine.Result{}, fmt.Errorf("worker %s: empty sweep stream", w.url)
	}
	var u engine.Update
	if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
		return engine.Result{}, fmt.Errorf("worker %s: bad NDJSON: %w", w.url, err)
	}
	return u.Result, nil
}

func boolPtr(b bool) *bool { return &b }
