// Package server exposes the scenario registry over HTTP/JSON: listing,
// single runs, and streaming parameter sweeps, backed by a tiered result
// cache (in-memory LRU → persistent content-addressed store → compute) and
// optionally scaled out over worker processes (coordinator mode).
//
// Endpoints:
//
//	GET  /scenarios  registry listing (name, description, defaults)
//	POST /run        one scenario run, JSON in / JSON out, cached
//	POST /sweep      parameter sweep, NDJSON stream of per-cell results
//	GET  /healthz    liveness plus registry and cache/store statistics
//	GET  /metrics    fabric observability: tier hit/miss counters, cells
//	                 computed vs served from store, queue depth, in-flight
//	                 dispatch, per-scenario timing sums, worker health
//
// Sweep responses stream one engine.Update JSON object per line —
// completion order in-process, deterministic cell order in coordinator
// mode; cancellation (client disconnect) propagates through the engine's
// context and aborts the remaining cells promptly. Admission control
// bounds the cells queued across requests: a request that would exceed
// the bound is refused with 429 and a Retry-After header rather than
// queued without limit.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// DefaultCacheSize is the LRU capacity used when Config.CacheSize is 0.
const DefaultCacheSize = 512

// DefaultQueueDepth bounds the cells admitted (queued or in flight)
// across all requests when Config.QueueDepth is 0.
const DefaultQueueDepth = 4096

// DefaultMaxBodyBytes bounds request bodies when Config.MaxBodyBytes is 0:
// 1 MiB, roomy for any realistic grid spec or explicit cell list.
const DefaultMaxBodyBytes int64 = 1 << 20

// Config parameterizes a Server.
type Config struct {
	// Registry resolves scenario names; nil means the default registry.
	Registry *engine.Registry
	// Workers is the default sweep worker pool (0 = all CPUs). Negative
	// values are rejected by New.
	Workers int
	// CacheSize bounds the LRU result cache: 0 means DefaultCacheSize,
	// negative disables caching.
	CacheSize int
	// StoreDir enables the persistent tier: a content-addressed result
	// store rooted at this directory (created if needed). Results are
	// keyed by the same canonical cell key as the LRU, written atomically
	// with a checksummed header, and survive process restarts — a
	// repeated grid is served from disk at cache speed by any later
	// process over the same directory. Empty disables the tier.
	StoreDir string
	// CheckpointEvery sets the durable mid-cell checkpoint interval in
	// simulated epochs for sweep cells of checkpointable scenarios
	// (engine.CheckpointableScenario). Checkpoints live in the StoreDir
	// store under their own namespace: a worker killed mid-cell resumes
	// its cell from the newest valid checkpoint instead of recomputing
	// from epoch 0, with results bit-identical to the uninterrupted run.
	// 0 means engine.DefaultCheckpointEvery; negative disables
	// checkpointing. No effect without StoreDir.
	CheckpointEvery int
	// WarmStart turns the snapshot-tree warm-start scheduler on by
	// default for /sweep requests whose scenarios support it
	// (engine.ForkableScenario); per-request "warm" overrides it either
	// way. Results are bit-identical to cold sweeps, so warm and cold
	// cells share the cache tiers freely.
	WarmStart bool
	// WarmBudget bounds resident warm-start snapshot bytes
	// (engine.WarmStartOptions.MemoryBudget): 0 means the engine default,
	// negative unlimited.
	WarmBudget int64
	// Shards lists worker base URLs (e.g. http://w1:8791). Non-empty puts
	// the server in coordinator mode: sweep cells are dispatched to the
	// workers over the NDJSON /sweep protocol, requeued from failed or
	// slow workers onto the survivors, and merged in deterministic cell
	// order. A plain serve instance is a valid worker.
	Shards []string
	// ShardInflight bounds concurrently dispatched cells per worker
	// (0 = DefaultShardInflight).
	ShardInflight int
	// ShardCellTimeout bounds one remote cell's wall clock; an overrun
	// condemns the worker and requeues the cell (0 = unbounded).
	ShardCellTimeout time.Duration
	// QueueDepth bounds the cells admitted (queued or in flight) across
	// all requests; a request that would exceed it is refused with 429 +
	// Retry-After. 0 means DefaultQueueDepth, negative unlimited.
	QueueDepth int
	// MaxBodyBytes bounds request bodies (http.MaxBytesReader); an
	// oversized body is refused with 413. 0 means DefaultMaxBodyBytes,
	// negative unlimited.
	MaxBodyBytes int64
}

// Server serves the scenario registry over HTTP.
type Server struct {
	reg        *engine.Registry
	workers    int
	cache      *resultCache
	store      *store.Results
	ckpts      *store.Checkpoints
	ckptEvery  int
	warm       bool
	warmBudget int64
	coord      *coordinator
	queueDepth int
	maxBody    int64
	metrics    *metrics
}

// New validates cfg and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("server: workers = %d, want >= 0 (0 = all CPUs)", cfg.Workers)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = engine.Default
	}
	s := &Server{
		reg:        reg,
		workers:    cfg.Workers,
		warm:       cfg.WarmStart,
		warmBudget: cfg.WarmBudget,
		metrics:    newMetrics(),
	}
	if cfg.CacheSize >= 0 {
		size := cfg.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		s.cache = newResultCache(size)
	}
	if cfg.StoreDir != "" {
		st, err := store.OpenResults(cfg.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("server: opening result store: %w", err)
		}
		s.store = st
		if cfg.CheckpointEvery >= 0 {
			// The checkpoint tier shares the result store's directory:
			// a worker's -store holds its results and its in-flight
			// checkpoints, so crash resume needs no extra configuration.
			s.ckpts = st.Checkpoints()
			s.ckptEvery = cfg.CheckpointEvery
		}
	}
	if len(cfg.Shards) > 0 {
		coord, err := newCoordinator(cfg.Shards, cfg.ShardInflight, cfg.ShardCellTimeout, s.metrics)
		if err != nil {
			return nil, err
		}
		s.coord = coord
	}
	s.queueDepth = cfg.QueueDepth
	if s.queueDepth == 0 {
		s.queueDepth = DefaultQueueDepth
	}
	s.maxBody = cfg.MaxBodyBytes
	if s.maxBody == 0 {
		s.maxBody = DefaultMaxBodyBytes
	}
	return s, nil
}

// Close flushes and closes the persistent store tier (graceful shutdown
// calls it after draining in-flight requests). The in-memory tiers need
// no teardown.
func (s *Server) Close() error {
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// Store exposes the persistent tier (nil when disabled); tests use it to
// inspect and damage entries.
func (s *Server) Store() *store.Results { return s.store }

// Checkpoints exposes the durable checkpoint tier (nil when disabled);
// tests use it to plant, inspect, and damage mid-cell checkpoints.
func (s *Server) Checkpoints() *store.Checkpoints { return s.ckpts }

// Handler returns the HTTP routing for the service.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /scenarios", s.handleScenarios)
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// decodeBody decodes a JSON request body under the configured size bound.
// It reports (handled=true) after writing the error response itself, so
// handlers can simply return.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) (handled bool) {
	if s.maxBody > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
			return true
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return true
	}
	return false
}

// admit reserves queue slots for n cells, or refuses with 429 +
// Retry-After when the bound would be exceeded. The returned release frees
// the slots (call it exactly once; it is nil-safe to call on refusal).
func (s *Server) admit(w http.ResponseWriter, n int) (release func(), ok bool) {
	if n == 0 {
		return func() {}, true
	}
	if s.queueDepth > 0 {
		if queued := s.metrics.admitted.Add(int64(n)); queued > int64(s.queueDepth) {
			s.metrics.admitted.Add(int64(-n))
			s.metrics.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests,
				"queue full: %d cells admitted of %d; retry shortly", queued-int64(n), s.queueDepth)
			return nil, false
		}
	} else {
		s.metrics.admitted.Add(int64(n))
	}
	return func() { s.metrics.admitted.Add(int64(-n)) }, true
}

// writeJSON emits v as JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

// writeError emits a JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleScenarios lists the registry.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Infos())
}

// lookup consults the cache tiers in order — LRU, then the persistent
// store. A store hit is promoted into the LRU so the next lookup stays in
// memory. tier is "lru", "store", or "" on a miss.
func (s *Server) lookup(key string) (engine.Result, string, bool) {
	if s.cache != nil {
		if res, ok := s.cache.get(key); ok {
			s.metrics.cellsFromLRU.Add(1)
			return res, "lru", true
		}
	}
	if s.store != nil {
		if res, ok := s.store.Get(key); ok {
			if s.cache != nil {
				s.cache.add(key, res)
			}
			s.metrics.cellsFromStore.Add(1)
			return res, "store", true
		}
	}
	return engine.Result{}, "", false
}

// save writes a computed result through every cache tier (metadata
// stripped: the tiers hold only the deterministic payload).
func (s *Server) save(key string, res engine.Result) {
	payload := res.WithoutMeta()
	if s.cache != nil {
		s.cache.add(key, payload)
	}
	if s.store != nil {
		s.store.Put(key, payload) //nolint:errcheck // a failed persist only costs a future recomputation
	}
}

// caching reports whether any cache tier is active.
func (s *Server) caching() bool { return s.cache != nil || s.store != nil }

// runRequest is the POST /run body. engine.Params decodes presence-aware
// (its UnmarshalJSON marks every key present in the document), so an
// explicit zero like {"rate": 0} survives defaulting as-is.
type runRequest struct {
	Scenario string        `json:"scenario"`
	Params   engine.Params `json:"params"`
}

// handleRun executes one scenario, serving repeated parameter points from
// the cache tiers (LRU, then disk). Coordinators compute /run in-process
// too: a coordinator is a complete serve instance, and a single cell does
// not fan out.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if s.decodeBody(w, r, &req) {
		return
	}
	sc, ok := s.reg.Lookup(req.Scenario)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scenario %q", req.Scenario)
		return
	}
	key := cacheKey(req.Scenario, req.Params.WithDefaults(sc.Defaults()))
	if res, _, ok := s.lookup(key); ok {
		res.Meta = engine.RunMeta{Cached: true}.Merged(res.Meta)
		writeJSON(w, http.StatusOK, res)
		return
	}
	release, ok := s.admit(w, 1)
	if !ok {
		return
	}
	defer release()
	res, err := timedRun(r.Context(), s.reg, req.Scenario, req.Params)
	if err != nil {
		// A cancelled request context is a server-side abort (client
		// disconnect or graceful shutdown), not a bad request.
		status := http.StatusBadRequest
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "scenario %q: %v", req.Scenario, err)
		return
	}
	if res.Meta != nil {
		s.metrics.recordComputed(req.Scenario, res.Meta.DurationMS)
	}
	s.save(key, res)
	writeJSON(w, http.StatusOK, res)
}

// sweepRequest is the POST /sweep body: either explicit cells, or a
// scenario plus a ParseGrid spec (with params pinning unlisted
// dimensions, mirroring the CLI flag fallback). Cell and fallback params
// decode presence-aware (engine.Params.UnmarshalJSON), so an explicit
// zero in the request is an explicit zero in the run.
type sweepRequest struct {
	Cells    []engine.Cell `json:"cells,omitempty"`
	Scenario string        `json:"scenario,omitempty"`
	Sweep    string        `json:"sweep,omitempty"`
	Params   engine.Params `json:"params,omitempty"`
	// Workers overrides the server's sweep pool for this request
	// (0 = server default, negative rejected).
	Workers int `json:"workers,omitempty"`
	// Warm overrides the server's warm-start default for this request
	// (absent = server default).
	Warm *bool `json:"warm,omitempty"`
}

// handleSweep expands the requested sweep and streams one NDJSON update
// per cell. Cells whose (scenario, canonical params) are cached — in the
// LRU or the persistent store — are emitted immediately without
// recomputation; the rest are computed in-process (completion order) or,
// in coordinator mode, dispatched over the workers and streamed in
// deterministic cell order.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if s.decodeBody(w, r, &req) {
		return
	}
	if req.Workers < 0 {
		writeError(w, http.StatusBadRequest, "workers = %d, want >= 0 (0 = server default)", req.Workers)
		return
	}
	cells := req.Cells
	if len(cells) == 0 {
		if req.Scenario == "" || req.Sweep == "" {
			writeError(w, http.StatusBadRequest, "body wants cells, or scenario plus sweep spec")
			return
		}
		if _, ok := s.reg.Lookup(req.Scenario); !ok {
			writeError(w, http.StatusNotFound, "unknown scenario %q", req.Scenario)
			return
		}
		grid, err := engine.ParseGrid(req.Scenario, req.Sweep)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		cells = grid.FillFrom(req.Params).Cells()
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.workers
	}
	warm := s.warm
	if req.Warm != nil {
		warm = *req.Warm
	}

	// Split the sweep: cells cached in any tier are answered without
	// recomputation, the rest go through the streaming engine (or the
	// coordinator's dispatch).
	type pending struct {
		index int
		key   string
		ok    bool // key resolvable (known scenario)
	}
	var cached []engine.Update
	var todo []engine.Cell
	var meta []pending
	for i, cell := range cells {
		key, ok := s.cellKey(cell)
		if ok && s.caching() {
			if res, _, hit := s.lookup(key); hit {
				res.Meta = engine.RunMeta{Cached: true}.Merged(res.Meta)
				cached = append(cached, engine.Update{Index: i, Result: res})
				continue
			}
		}
		todo = append(todo, cell)
		meta = append(meta, pending{index: i, key: key, ok: ok})
	}
	release, ok := s.admit(w, len(todo))
	if !ok {
		return
	}
	defer release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	total := len(cells)
	completed := 0
	emit := func(u engine.Update) {
		completed++
		u.Completed = completed
		u.Total = total
		enc.Encode(u) //nolint:errcheck // disconnects surface via the request context
		if flusher != nil {
			flusher.Flush()
		}
	}
	for _, u := range cached {
		emit(u)
	}
	opt := engine.Options{Workers: workers, Registry: s.reg}
	if warm {
		opt.WarmStart = &engine.WarmStartOptions{MemoryBudget: s.warmBudget}
	}
	if s.ckpts != nil {
		opt.Checkpoint = &engine.CheckpointOptions{Every: s.ckptEvery, Store: s.ckpts}
	}
	if s.coord != nil {
		opt.Dispatch = s.coord.dispatch
	}
	for u := range engine.SweepStream(r.Context(), todo, opt) {
		p := meta[u.Index]
		if u.Result.Err == "" {
			if p.ok {
				s.save(p.key, u.Result)
			}
			// Resume provenance rides RunMeta whether the cell ran here
			// or on a remote worker; either way this server streamed it.
			if u.Result.Meta != nil && u.Result.Meta.Checkpoint != nil && u.Result.Meta.Checkpoint.Resumed {
				s.metrics.cellsResumed.Add(1)
				s.metrics.checkpointEpochsSaved.Add(uint64(u.Result.Meta.Checkpoint.EpochsSaved))
			}
			// In coordinator mode the cells were computed elsewhere (the
			// metrics ledger tracks them as remote; the local-fallback path
			// records its own compute); only count in-process work here.
			if u.Result.Meta != nil && s.coord == nil {
				s.metrics.recordComputed(u.Result.Scenario, u.Result.Meta.DurationMS)
			}
		}
		u.Index = p.index
		emit(u)
	}
}

// handleHealthz reports liveness plus registry, cache, and store
// statistics.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":    "ok",
		"scenarios": len(s.reg.Names()),
	}
	if s.cache != nil {
		hits, misses := s.cache.stats()
		body["cache"] = map[string]uint64{
			"entries": uint64(s.cache.len()),
			"hits":    hits,
			"misses":  misses,
		}
	}
	if s.store != nil {
		body["store"] = s.store.Stats()
	}
	if s.ckpts != nil {
		body["checkpoints"] = checkpointMetrics{
			CheckpointStats: s.ckpts.Stats(),
			Resumed:         s.metrics.cellsResumed.Load(),
			EpochsSaved:     s.metrics.checkpointEpochsSaved.Load(),
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// metricsResponse is the GET /metrics document.
type metricsResponse struct {
	// Cells accounts where every answered cell came from.
	Cells struct {
		Computed  uint64 `json:"computed"`
		FromLRU   uint64 `json:"from_lru"`
		FromStore uint64 `json:"from_store"`
	} `json:"cells"`
	// Queue is the admission-control state.
	Queue struct {
		Depth    int64  `json:"depth"`
		Limit    int    `json:"limit"`
		Rejected uint64 `json:"rejected"`
	} `json:"queue"`
	Cache *struct {
		Entries int    `json:"entries"`
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
	} `json:"cache,omitempty"`
	Store *store.Stats `json:"store,omitempty"`
	// Checkpoints is present only when a checkpoint store is configured:
	// the store-side ledger (written/bytes/loaded/missed/gc_deleted) plus
	// the sweep-side resume wins.
	Checkpoints *checkpointMetrics `json:"checkpoints,omitempty"`
	// Coordinator is present only in coordinator mode.
	Coordinator *struct {
		Workers  []workerStats `json:"workers"`
		Remote   uint64        `json:"cells_remote"`
		Requeued uint64        `json:"cells_requeued"`
		Lost     uint64        `json:"workers_lost"`
		Inflight int64         `json:"inflight"`
	} `json:"coordinator,omitempty"`
	// Scenarios sums computed-cell wall clock per scenario, sorted by
	// name so the rendered order is fixed by construction.
	Scenarios []namedScenarioTiming `json:"scenarios"`
}

// checkpointMetrics is the /metrics checkpoints block: the checkpoint
// store's own counters plus the cells this server streamed that resumed
// from a durable checkpoint (and the epochs those resumes skipped),
// whether the cell ran locally or on a remote worker.
type checkpointMetrics struct {
	store.CheckpointStats
	Resumed     uint64 `json:"resumed"`
	EpochsSaved uint64 `json:"epochs_saved"`
}

// handleMetrics serves the fabric's observability counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var resp metricsResponse
	resp.Cells.Computed = s.metrics.cellsComputed.Load()
	resp.Cells.FromLRU = s.metrics.cellsFromLRU.Load()
	resp.Cells.FromStore = s.metrics.cellsFromStore.Load()
	resp.Queue.Depth = s.metrics.admitted.Load()
	resp.Queue.Limit = s.queueDepth
	resp.Queue.Rejected = s.metrics.rejected.Load()
	if s.cache != nil {
		hits, misses := s.cache.stats()
		resp.Cache = &struct {
			Entries int    `json:"entries"`
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
		}{Entries: s.cache.len(), Hits: hits, Misses: misses}
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Store = &st
	}
	if s.ckpts != nil {
		resp.Checkpoints = &checkpointMetrics{
			CheckpointStats: s.ckpts.Stats(),
			Resumed:         s.metrics.cellsResumed.Load(),
			EpochsSaved:     s.metrics.checkpointEpochsSaved.Load(),
		}
	}
	if s.coord != nil {
		resp.Coordinator = &struct {
			Workers  []workerStats `json:"workers"`
			Remote   uint64        `json:"cells_remote"`
			Requeued uint64        `json:"cells_requeued"`
			Lost     uint64        `json:"workers_lost"`
			Inflight int64         `json:"inflight"`
		}{
			Workers:  s.coord.stats(),
			Remote:   s.metrics.cellsRemote.Load(),
			Requeued: s.metrics.cellsRequeued.Load(),
			Lost:     s.metrics.workersLost.Load(),
			Inflight: s.metrics.remoteInflight.Load(),
		}
	}
	resp.Scenarios = s.metrics.snapshotScenarios()
	writeJSON(w, http.StatusOK, resp)
}

// timedRun executes a scenario and stamps the result with its wall-clock
// duration.
func timedRun(ctx context.Context, reg *engine.Registry, name string, p engine.Params) (engine.Result, error) {
	start := time.Now()
	res, err := reg.RunContext(ctx, name, p)
	if err != nil {
		return engine.Result{}, err
	}
	res.Meta = engine.RunMeta{DurationMS: float64(time.Since(start)) / float64(time.Millisecond)}.Merged(res.Meta)
	return res, nil
}

// cellKey resolves a cell's cache key (false for unknown scenarios, whose
// defaults cannot be applied).
func (s *Server) cellKey(c engine.Cell) (string, bool) {
	return engine.CanonicalCellKey(s.reg, c)
}
