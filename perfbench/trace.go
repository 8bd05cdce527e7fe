package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
)

// tracer records spans around the benchmark's calls into the program's
// layers: scenario entry points (through a wrapping registry), checkpoint
// saves (through a wrapping checkpoint store) and HTTP requests (through a
// wrapping handler). Spans are kept in memory and summarized once the
// measured window ends.
type tracer struct {
	mu       sync.Mutex
	cellMS   []float64     // Run, RunContext and ResumeFrom calls
	prefix   time.Duration // RunTo
	resume   time.Duration // ResumeFrom
	encode   time.Duration // EncodePrefix
	decode   time.Duration // DecodePrefix
	ckptSave time.Duration // CheckpointStore.SaveCheckpoint
	selfMS   []float64     // per request: handler time not covered by compute spans
}

func (t *tracer) add(d *time.Duration, start time.Time) {
	t.mu.Lock()
	*d += time.Since(start)
	t.mu.Unlock()
}

// cell records one scenario call that completes a cell.
func (t *tracer) cell(start time.Time) {
	t.mu.Lock()
	t.cellMS = append(t.cellMS, ms(time.Since(start)))
	t.mu.Unlock()
}

// reqSpan collects the compute intervals that ran on behalf of one HTTP
// request; the handler wrapper puts it in the request context, and the
// scenario wrapper finds it in the context the server passes down.
type reqSpan struct {
	mu       sync.Mutex
	children [][2]time.Time
}

type reqSpanKey struct{}

// child attributes a compute interval to the request in ctx, if any.
// Plain scenarios (Run without a context) cannot be attributed; their
// compute stays in the request's self time.
func child(ctx context.Context, start time.Time) {
	sp, ok := ctx.Value(reqSpanKey{}).(*reqSpan)
	if !ok {
		return
	}
	end := time.Now()
	sp.mu.Lock()
	sp.children = append(sp.children, [2]time.Time{start, end})
	sp.mu.Unlock()
}

// selfTime is the part of [start, end] that no child interval covers.
// Children may overlap (a sweep computes cells on several workers).
func selfTime(start, end time.Time, children [][2]time.Time) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i][0].Before(children[j][0]) })
	covered := time.Duration(0)
	cur := start
	for _, c := range children {
		lo, hi := c[0], c[1]
		if lo.Before(cur) {
			lo = cur
		}
		if hi.After(end) {
			hi = end
		}
		if hi.After(lo) {
			covered += hi.Sub(lo)
			cur = hi
		}
	}
	return end.Sub(start) - covered
}

// wrapHandler records each request's span and, once it ends, its self
// time.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := &reqSpan{}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqSpanKey{}, sp)))
		end := time.Now()
		sp.mu.Lock()
		self := selfTime(start, end, sp.children)
		sp.mu.Unlock()
		t.mu.Lock()
		t.selfMS = append(t.selfMS, ms(self))
		t.mu.Unlock()
	})
}

// tracedCheckpoints times checkpoint saves of an engine.CheckpointStore.
type tracedCheckpoints struct {
	inner engine.CheckpointStore
	tr    *tracer
}

func (c tracedCheckpoints) LoadCheckpoint(key string) ([]byte, bool) {
	return c.inner.LoadCheckpoint(key)
}

func (c tracedCheckpoints) SaveCheckpoint(key string, payload []byte) error {
	defer c.tr.add(&c.tr.ckptSave, time.Now())
	return c.inner.SaveCheckpoint(key, payload)
}

func (c tracedCheckpoints) DeleteCheckpoint(key string) { c.inner.DeleteCheckpoint(key) }

// tracedRegistry returns a registry holding every scenario of engine.Default
// behind a tracing wrapper.
func (t *tracer) tracedRegistry() (*engine.Registry, error) {
	reg := engine.NewRegistry()
	for _, name := range engine.Default.Names() {
		s, _ := engine.Default.Lookup(name)
		if err := reg.Register(t.wrapScenario(s)); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// wrapScenario wraps s in a type that implements exactly the optional
// interfaces s implements (engine.ContextRunner, engine.ForkableScenario,
// engine.CheckpointableScenario), so the registry, the warm-start
// scheduler and the checkpoint runner route a wrapped scenario exactly as
// they route s.
func (t *tracer) wrapScenario(s engine.Scenario) engine.Scenario {
	b := &tracedBase{inner: s, tr: t}
	_, isCtx := s.(engine.ContextRunner)
	_, isFork := s.(engine.ForkableScenario)
	_, isCkpt := s.(engine.CheckpointableScenario)
	c, f, k := ctxPart{b}, forkPart{b}, ckptPart{b}
	switch {
	case isCtx && isCkpt:
		return tracedCtxForkCkpt{b, c, f, k}
	case isCtx && isFork:
		return tracedCtxFork{b, c, f}
	case isCtx:
		return tracedCtx{b, c}
	case isCkpt:
		return tracedForkCkpt{b, f, k}
	case isFork:
		return tracedFork{b, f}
	}
	return b
}

// The wrapper types: one per combination of optional interfaces. Each
// embeds the base (Scenario) plus one part per optional interface.
type (
	tracedCtx struct {
		*tracedBase
		ctxPart
	}
	tracedFork struct {
		*tracedBase
		forkPart
	}
	tracedCtxFork struct {
		*tracedBase
		ctxPart
		forkPart
	}
	tracedForkCkpt struct {
		*tracedBase
		forkPart
		ckptPart
	}
	tracedCtxForkCkpt struct {
		*tracedBase
		ctxPart
		forkPart
		ckptPart
	}
)

type tracedBase struct {
	inner engine.Scenario
	tr    *tracer
}

func (b *tracedBase) Name() string            { return b.inner.Name() }
func (b *tracedBase) Description() string     { return b.inner.Description() }
func (b *tracedBase) Defaults() engine.Params { return b.inner.Defaults() }

func (b *tracedBase) Run(p engine.Params) (engine.Result, error) {
	defer b.tr.cell(time.Now())
	return b.inner.Run(p)
}

type ctxPart struct{ *tracedBase }

func (c ctxPart) RunContext(ctx context.Context, p engine.Params) (engine.Result, error) {
	start := time.Now()
	defer child(ctx, start)
	defer c.tr.cell(start)
	return c.inner.(engine.ContextRunner).RunContext(ctx, p)
}

type forkPart struct{ *tracedBase }

func (f forkPart) Fork(p engine.Params) (string, int, bool) {
	return f.inner.(engine.ForkableScenario).Fork(p)
}

func (f forkPart) RunTo(ctx context.Context, p engine.Params, from *engine.Prefix, epoch int) (*engine.Prefix, error) {
	start := time.Now()
	defer child(ctx, start)
	defer f.tr.add(&f.tr.prefix, start)
	return f.inner.(engine.ForkableScenario).RunTo(ctx, p, from, epoch)
}

func (f forkPart) ResumeFrom(ctx context.Context, pre *engine.Prefix, p engine.Params) (engine.Result, error) {
	start := time.Now()
	defer child(ctx, start)
	defer f.tr.cell(start)
	defer f.tr.add(&f.tr.resume, start)
	return f.inner.(engine.ForkableScenario).ResumeFrom(ctx, pre, p)
}

type ckptPart struct{ *tracedBase }

func (k ckptPart) EncodePrefix(w io.Writer, pre *engine.Prefix) error {
	defer k.tr.add(&k.tr.encode, time.Now())
	return k.inner.(engine.CheckpointableScenario).EncodePrefix(w, pre)
}

func (k ckptPart) DecodePrefix(r io.Reader) (*engine.Prefix, error) {
	defer k.tr.add(&k.tr.decode, time.Now())
	return k.inner.(engine.CheckpointableScenario).DecodePrefix(r)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
