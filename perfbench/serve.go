package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// Traffic of the serve workload: an open loop at serveRate requests per
// second whose kinds come in the exact proportions of serveDeck, in a
// seeded order, so every run offers the same mix.
const (
	serveRate   = 200  // requests per second
	serveHot    = 16   // /run cells repeated often enough to stay in the LRU
	serveStored = 1000 // /run cells written to the store during setup
	serveLRU    = 64   // LRU capacity: far below serveStored, so repeats reach the store
)

type serveKind int

var kindNames = []string{"hot", "stored", "conflict", "leaksim", "bounce", "sweep"}

const (
	kindHot      serveKind = iota // /run repeat answered by the LRU
	kindStored                    // /run repeat answered by the store
	kindConflict                  // fresh analytic/conflict (tens of µs)
	kindLeakSim                   // fresh aggregate leaksim (under a ms)
	kindBounce                    // fresh bounce-mc (~100 ms)
	kindSweep                     // fresh two-cell sim/gst /sweep grid at n = 1000
)

// serveDeck gives each kind's share of the traffic, per 1000 requests.
// Heavy requests (bounce-mc, /sweep) are 1.1% of the traffic and evenly
// spaced (every ~0.45 s, longer than any of them runs), so two never hold
// both connections at once and cheap requests never queue behind a pair.
// latency_p99_ms then falls inside the heavy class, among its fastest
// tenth, instead of in a tail of queued cheap requests whose size swings
// with how the heavy requests happened to overlap. The fastest heavy
// requests are served in the shared host's quiet moments, which every
// run has; the heavy median follows how busy the host was during the run
// and swung by a third from run to run.
var serveDeck = []struct {
	kind     serveKind
	perMille int
	heavy    bool
}{
	{kindHot, 500, false},
	{kindStored, 250, false},
	{kindConflict, 130, false},
	{kindLeakSim, 109, false},
	{kindBounce, 9, true},
	{kindSweep, 2, true},
}

// serveItem is one request of the catalogue plus the cells its response
// must carry, in response order (/sweep lines carry their index).
type serveItem struct {
	kind  serveKind
	req   request
	cells []engine.Cell
}

// hotCell and storedCell are the repeated /run cells. Their p0 values
// are offset by the seed, so each seed has its own keys.
func hotCell(seed int64, k int) engine.Cell {
	return engine.Cell{Scenario: engine.ScenarioAnalyticConflict, Params: engine.Params{
		P0: 0.40 + 0.01*float64(k) + seedOffset(seed), Mode: "honest",
	}}
}

func storedCell(seed int64, k int) engine.Cell {
	return engine.Cell{Scenario: engine.ScenarioAnalyticConflict, Params: engine.Params{
		P0: 0.30 + 0.0004*float64(k) + seedOffset(seed), Beta0: 0.1, Mode: conflictModes[k%len(conflictModes)],
	}}
}

var conflictModes = []string{"honest", "slashing", "semi"}

func seedOffset(seed int64) float64 {
	return float64(uint64(mix(seed, 3))%1000) * 1e-7
}

// serveCatalogue is the seeded request schedule for a window of the
// given length.
func serveCatalogue(seed int64, window time.Duration) ([]serveItem, error) {
	n := int(window.Seconds() * serveRate)
	rng := rand.New(rand.NewSource(mix(seed, 7)))
	var cheap, heavy []serveKind
	for _, d := range serveDeck {
		for i := 0; i < n*d.perMille/1000; i++ {
			if d.heavy {
				heavy = append(heavy, d.kind)
			} else {
				cheap = append(cheap, d.kind)
			}
		}
	}
	for len(cheap)+len(heavy) < n { // what rounding down left over
		cheap = append(cheap, kindHot)
	}
	rng.Shuffle(len(cheap), func(i, j int) { cheap[i], cheap[j] = cheap[j], cheap[i] })
	rng.Shuffle(len(heavy), func(i, j int) { heavy[i], heavy[j] = heavy[j], heavy[i] })
	deck := make([]serveKind, 0, n)
	next := 0 // the next heavy request to place
	for i := 0; i < n; i++ {
		// Heavy request j takes slot (j + 1/2) * n / len(heavy).
		if next < len(heavy) && i == (2*next+1)*n/(2*len(heavy)) {
			deck = append(deck, heavy[next])
			next++
		} else {
			deck = append(deck, cheap[i-next])
		}
	}
	items := make([]serveItem, 0, n)
	for _, kind := range deck {
		it := serveItem{kind: kind}
		var err error
		switch kind {
		case kindHot:
			it.cells = []engine.Cell{hotCell(seed, rng.Intn(serveHot))}
		case kindStored:
			it.cells = []engine.Cell{storedCell(seed, rng.Intn(serveStored))}
		case kindConflict:
			mode := conflictModes[rng.Intn(len(conflictModes))]
			it.cells = []engine.Cell{{Scenario: engine.ScenarioAnalyticConflict, Params: engine.Params{
				P0: 0.3 + 0.4*rng.Float64(), Beta0: 0.05 + 0.25*rng.Float64(), Mode: mode,
			}}}
		case kindLeakSim:
			it.cells = []engine.Cell{{Scenario: engine.ScenarioLeakSim, Params: engine.Params{
				P0: 0.4 + 0.2*rng.Float64(), Mode: "absent",
			}}}
		case kindBounce:
			it.cells = []engine.Cell{{Scenario: engine.ScenarioBounceMC, Params: engine.Params{
				Seed: 1 + rng.Int63n(1<<40),
			}}}
		case kindSweep:
			it.req, it.cells, err = sweepRequest(1 + rng.Int63n(1<<40))
		}
		if err != nil {
			return nil, err
		}
		if kind != kindSweep {
			it.req, err = runRequest(it.cells[0])
			if err != nil {
				return nil, err
			}
		}
		it.req.due = time.Duration(len(items)) * time.Second / serveRate
		items = append(items, it)
	}
	return items, nil
}

func runRequest(c engine.Cell) (request, error) {
	body, err := json.Marshal(c)
	return request{method: http.MethodPost, path: "/run", body: body}, err
}

// sweepRequest is a /sweep grid spec; its cells are expanded the way the
// server expands them. It asks for one worker, so a grid, like the other
// heavy requests, holds one CPU and leaves the other to the cheap traffic.
func sweepRequest(seed int64) (request, []engine.Cell, error) {
	const spec = "gst=4,8"
	p := engine.Params{N: 1000, Horizon: 16, Seed: seed}
	body, err := json.Marshal(map[string]any{"scenario": engine.ScenarioSimGST, "sweep": spec, "params": p, "workers": 1})
	if err != nil {
		return request{}, nil, err
	}
	g, err := engine.ParseGrid(engine.ScenarioSimGST, spec)
	if err != nil {
		return request{}, nil, err
	}
	return request{method: http.MethodPost, path: "/sweep", body: body}, g.FillFrom(p).Cells(), nil
}

// serveConfig is the measured server's configuration, as `serve -warm
// -workers 2 -cache 64 -store DIR` sets it.
func (b *bench) serveConfig(dir string) server.Config {
	return server.Config{Registry: b.reg, Workers: 2, CacheSize: serveLRU, StoreDir: dir, WarmStart: true}
}

// populate writes the repeated cells to the store in dir through a
// server instance of its own, as an earlier process would have.
func (b *bench) populate(dir string) error {
	srv, err := server.New(server.Config{Registry: b.reg, Workers: 2, CacheSize: -1, StoreDir: dir})
	if err != nil {
		return err
	}
	err = fill(srv.Handler(), b.seed)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// fill answers a /run request for every hot and stored cell.
func fill(h http.Handler, seed int64) error {
	var cells []engine.Cell
	for k := 0; k < serveHot; k++ {
		cells = append(cells, hotCell(seed, k))
	}
	for k := 0; k < serveStored; k++ {
		cells = append(cells, storedCell(seed, k))
	}
	for _, c := range cells {
		req, err := runRequest(c)
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(req.method, req.path, bytes.NewReader(req.body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("populating %s: status %d: %s", c.Params, rec.Code, rec.Body.String())
		}
	}
	return nil
}

// liveServer is a server listening on loopback.
type liveServer struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
}

func (b *bench) startServer(dir string) (*liveServer, error) {
	srv, err := server.New(b.serveConfig(dir))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if b.tr != nil {
		h = b.tr.wrapHandler(h)
	}
	ls := &liveServer{
		srv:  srv,
		http: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { ls.done <- ls.http.Serve(ln) }()
	return ls, nil
}

// stop shuts the listener down, waits for in-flight requests and the
// serving goroutine, and closes the store.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ls.http.Shutdown(ctx)
	<-ls.done
	ls.srv.Close()
}

// runServe measures open-loop HTTP traffic against a server configured
// like cmd/serve, then checks every response against a direct engine run.
func runServe(ctx context.Context, b *bench) error {
	items, err := serveCatalogue(b.seed, b.seconds)
	if err != nil {
		return err
	}
	// The store is filled once, untimed, as an earlier process would have
	// left it; set-up is what a restart costs: opening the filled store
	// and starting the server.
	dir, err := b.tempDir("serve-")
	if err != nil {
		return err
	}
	if err := b.populate(dir); err != nil {
		return err
	}
	var ls *liveServer
	teardown, err := b.setup(func() (func(), error) {
		s, err := b.startServer(dir)
		if err != nil {
			return nil, err
		}
		ls = s
		return s.stop, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	reqs := make([]request, len(items))
	for i, it := range items {
		reqs[i] = it.req
	}
	conns := runtime.NumCPU()
	client := newClient(conns)
	defer client.CloseIdleConnections()
	if err := b.startMeasure(); err != nil {
		return err
	}
	start := time.Now()
	outs := runOpenLoop(ctx, client, ls.url, reqs, conns)
	wall := time.Since(start)
	b.stopMeasure()

	want, err := directPayloads(ctx, b, items)
	if err != nil {
		return err
	}
	var (
		latMS, lateMS []float64
		cells         int
		epochs        float64
		warmCells     int
		warmHits      int
		saved         int
		peak          int64
		last          engine.Result
		byKind        = map[serveKind][]float64{}
	)
	for i, it := range items {
		o := outs[i]
		b.attempted++
		lateMS = append(lateMS, ms(o.late))
		if o.err != nil || o.status != http.StatusOK {
			// Refused or errored: no output to check, but it misses
			// every latency limit.
			b.opError("%s %s: %v", it.req.path, it.cells[0].Params, requestError(o))
			latMS = append(latMS, ms(b.seconds))
			continue
		}
		results, err := decodeResponse(it, o)
		if err == nil {
			for j, res := range results {
				if !bytes.Equal(payloadOf(res), want[cellKey(it.cells[j])]) {
					err = fmt.Errorf("payload differs from a direct engine run")
					break
				}
			}
		}
		if err != nil {
			b.opFailed("%s %s: %v", it.req.path, it.cells[0].Params, err)
			latMS = append(latMS, ms(b.seconds))
			continue
		}
		latMS = append(latMS, ms(o.latency))
		byKind[it.kind] = append(byKind[it.kind], ms(o.latency))
		cells += len(results)
		for _, res := range results {
			if strings.HasPrefix(res.Scenario, "sim/") {
				epochs += simulatedEpochs(res)
				last = res
			}
			if it.kind == kindSweep && res.Meta != nil {
				warmCells++
				if w := res.Meta.Warm; w != nil {
					if w.Hit {
						warmHits++
					}
					saved += w.EpochsSaved
					peak = max(peak, w.PeakResidentBytes)
				}
			}
		}
	}
	for _, d := range serveDeck {
		l := byKind[d.kind]
		fmt.Printf("latency %-8s n=%-5d min=%.2f p25=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f ms\n", kindNames[d.kind], len(l),
			percentile(l, 0), percentile(l, 0.25), percentile(l, 0.5), percentile(l, 0.9), percentile(l, 0.99), percentile(l, 1))
	}
	b.e2e["epochs_per_s"] = epochs / wall.Seconds()
	b.e2e["cells_per_s"] = float64(cells) / wall.Seconds()
	b.e2e["latency_p50_ms"] = percentile(latMS, 0.50)
	b.e2e["latency_p99_ms"] = percentile(latMS, 0.99)
	b.layer["gen.late_ms"] = percentile(lateMS, 0.99)
	if warmCells > 0 {
		b.layer["warmstart.hit_ratio"] = float64(warmHits) / float64(warmCells)
	}
	b.layer["warmstart.epochs_saved"] = float64(saved)
	b.layer["warmstart.peak_resident_bytes"] = float64(peak)
	b.simLayers(last)
	return b.serverCounters(ctx, client, ls.url)
}

// requestError describes a request that failed or was refused.
func requestError(o outcome) error {
	if o.err != nil {
		return o.err
	}
	return fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
}

// decodeResponse parses one 200 response into the results it carries, in
// the order of the item's cells.
func decodeResponse(it serveItem, o outcome) ([]engine.Result, error) {
	if it.kind != kindSweep {
		var res engine.Result
		if err := json.Unmarshal(o.body, &res); err != nil {
			return nil, err
		}
		return []engine.Result{res}, nil
	}
	out := make([]engine.Result, len(it.cells))
	seen := 0
	sc := bufio.NewScanner(bytes.NewReader(o.body))
	for sc.Scan() {
		var u engine.Update
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			return nil, err
		}
		if u.Index < 0 || u.Index >= len(out) || out[u.Index].Scenario != "" {
			return nil, fmt.Errorf("sweep line with index %d", u.Index)
		}
		if u.Result.Err != "" {
			return nil, errors.New(u.Result.Err)
		}
		out[u.Index] = u.Result
		seen++
	}
	if seen != len(out) {
		return nil, fmt.Errorf("sweep streamed %d of %d cells", seen, len(out))
	}
	return out, nil
}

func cellKey(c engine.Cell) string {
	key, _ := engine.CanonicalCellKey(engine.Default, c)
	return key
}

// directPayloads runs every distinct cell of the catalogue directly
// through engine.Default, outside the timer, on two goroutines.
func directPayloads(ctx context.Context, b *bench, items []serveItem) (map[string][]byte, error) {
	var cells []engine.Cell
	want := map[string][]byte{}
	for _, it := range items {
		for _, c := range it.cells {
			if k := cellKey(c); want[k] == nil {
				want[k] = []byte{}
				cells = append(cells, c)
			}
		}
	}
	payloads := make([][]byte, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(cells); i += workers {
				res, err := engine.Default.RunContext(ctx, cells[i].Scenario, cells[i].Params)
				payloads[i], errs[i] = payloadOf(res), err
			}
		}()
	}
	wg.Wait()
	for i, c := range cells {
		if errs[i] != nil {
			return nil, fmt.Errorf("direct run of %s %s: %w", c.Scenario, c.Params, errs[i])
		}
		want[cellKey(c)] = payloads[i]
		b.checkGolden(c, payloads[i])
	}
	return want, nil
}

// serverCounters reads the server's own counters from GET /metrics.
func (b *bench) serverCounters(ctx context.Context, client *http.Client, url string) error {
	status, body, err := do(ctx, client, url, request{method: http.MethodGet, path: "/metrics"})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d", status)
	}
	var m struct {
		Cells struct {
			Computed  float64 `json:"computed"`
			FromLRU   float64 `json:"from_lru"`
			FromStore float64 `json:"from_store"`
		} `json:"cells"`
		Queue struct {
			Rejected float64 `json:"rejected"`
		} `json:"queue"`
		Store *struct {
			Bytes float64 `json:"bytes"`
			Hits  float64 `json:"hits"`
			Puts  float64 `json:"puts"`
		} `json:"store"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	b.layer["server.computed"] = m.Cells.Computed
	b.layer["server.from_lru"] = m.Cells.FromLRU
	b.layer["server.from_store"] = m.Cells.FromStore
	b.layer["server.rejected"] = m.Queue.Rejected
	if m.Store != nil {
		b.layer["store.hits"] = m.Store.Hits
		b.layer["store.puts"] = m.Store.Puts
		b.layer["store.bytes"] = m.Store.Bytes
	}
	return nil
}
