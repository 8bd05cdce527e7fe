package engine

// The local sweep executor behind SweepStream. Every sweep is planned the
// same way: with Options.WarmStart set, the cells of ForkableScenario
// scenarios that share a parameter prefix (Fork key) form a prefix group,
// whose shared prefix is simulated exactly once (RunTo) and fanned out to
// the cells from deep-copied snapshots (ResumeFrom) — turning a grid whose
// cells re-simulate identical epoch-0..branch prefixes into one spine walk
// plus cheap resumes. Every other cell (all of them when WarmStart is nil:
// a plan with no prefix groups) runs on its own through runCell, under the
// durable-checkpoint policy when Options.Checkpoint is set.
//
// The snapshot tree is an execution strategy, not a semantics change:
// results are bit-identical to the cold sweep for any worker count,
// snapshot-reuse pattern, and eviction schedule (the warm-vs-cold
// equivalence suite enforces this).
//
// Memory: resident snapshots are refcounted and budgeted
// (WarmStartOptions.MemoryBudget, via sim.Snapshot.Bytes). Over budget,
// the cheapest-to-rebuild snapshots (lowest branch epoch) are evicted; a
// cell that later needs an evicted checkpoint rebuilds it from the nearest
// surviving ancestor, or from genesis.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// prefixEntry states. An entry is one planned checkpoint: (prefix key,
// branch epoch).
const (
	statePending    = iota // spine has not reached this branch yet
	stateLive              // snapshot resident, ready to resume from
	stateEvicted           // dropped for budget; rebuild on demand
	stateRebuilding        // one cell is rebuilding; siblings wait
	stateFailed            // RunTo failed; every dependent cell fails
	stateReleased          // last dependent cell finished; memory freed
)

type prefixEntry struct {
	branch int
	// ready closes when the spine first publishes this entry (live or
	// failed); resumes wait on it before consulting state.
	ready chan struct{}
	// rebuildCh is non-nil while state == stateRebuilding and closes when
	// the rebuild settles (live, evicted, or failed).
	rebuildCh chan struct{}
	// refs counts cells that still need this checkpoint; 0 releases it.
	refs int
	// pins counts in-flight rebuilds reading this checkpoint as their
	// ancestor; a pinned checkpoint is never handed out as Owned (its
	// snapshot is being read concurrently).
	pins   int
	state  int
	prefix *Prefix
	bytes  int64 // resident bytes charged (0 for aliases of an ancestor)
	err    error
}

// prefixGroup is one prefix-tree spine: the cells of one scenario sharing
// one Fork key, checkpointed at their sorted distinct branch epochs.
type prefixGroup struct {
	tree *snapshotTree
	fs   ForkableScenario
	// params is the representative cell's defaulted params. RunTo
	// implementations derive the prefix from pre-branch dimensions only
	// (the ForkableScenario contract), so any group member's params serve.
	params  Params
	entries map[int]*prefixEntry
	order   []int // sorted branch epochs
	// spineDone is set once runSpine has walked every branch: until then
	// the spine may still be reading its latest prefix as the base of the
	// next hop, so no checkpoint can be handed out as Owned.
	spineDone bool
}

// snapshotTree is the per-sweep warm-start state: budget accounting and
// the observability counters surfaced through WarmMeta.
type snapshotTree struct {
	mu       sync.Mutex
	budget   int64 // <= 0: unlimited
	resident int64
	peak     int64
	hits     int
	rebuilt  int
	nodes    int
	entries  []*prefixEntry // every entry across groups, for eviction scans
}

// resumeJob is one grouped cell: it completes from its group's checkpoint
// at the cell's branch epoch.
type resumeJob struct {
	idx    int
	params Params
	g      *prefixGroup
	e      *prefixEntry
}

// sweepLocal runs a sweep in-process. Channel contract (SweepStream): one
// Update per cell in completion order, the channel closed after the last,
// cancelled cells marked with the context error.
func sweepLocal(ctx context.Context, cells []Cell, opt Options) <-chan Update {
	reg := opt.Registry
	if reg == nil {
		reg = Default
	}
	out := make(chan Update)
	if len(cells) == 0 {
		close(out)
		return out
	}
	warm := opt.WarmStart != nil
	tree := &snapshotTree{}
	if warm {
		tree.budget = opt.WarmStart.Budget()
	}

	// Plan: a cell joins a prefix group when the sweep is warm, its
	// scenario is forkable, and it shares a prefix with at least one other
	// cell; every other cell runs on its own.
	type warmCell struct {
		idx    int
		params Params
		branch int
	}
	pending := make(map[string][]warmCell)
	pendingFS := make(map[string]ForkableScenario)
	var keys []string // insertion order, for a deterministic plan
	var solos []int
	for i, c := range cells {
		if !warm {
			solos = append(solos, i)
			continue
		}
		s, ok := reg.Lookup(c.Scenario)
		if !ok {
			solos = append(solos, i) // surfaces the unknown-scenario error
			continue
		}
		fs, ok := s.(ForkableScenario)
		if !ok {
			solos = append(solos, i)
			continue
		}
		p := c.Params.WithDefaults(s.Defaults())
		key, branch, forkable := fs.Fork(p)
		if !forkable || branch <= 0 {
			solos = append(solos, i)
			continue
		}
		k := c.Scenario + "\x00" + key
		if _, seen := pending[k]; !seen {
			keys = append(keys, k)
			pendingFS[k] = fs
		}
		pending[k] = append(pending[k], warmCell{i, p, branch})
	}

	var groups []*prefixGroup
	var resumes []resumeJob
	for _, k := range keys {
		wcs := pending[k]
		if len(wcs) < 2 {
			// A lone cell gains nothing from a shared snapshot.
			solos = append(solos, wcs[0].idx)
			continue
		}
		g := &prefixGroup{tree: tree, fs: pendingFS[k], params: wcs[0].params, entries: make(map[int]*prefixEntry)}
		for _, wc := range wcs {
			e := g.entries[wc.branch]
			if e == nil {
				e = &prefixEntry{branch: wc.branch, ready: make(chan struct{}), state: statePending}
				g.entries[wc.branch] = e
				g.order = append(g.order, wc.branch)
				tree.entries = append(tree.entries, e)
			}
			e.refs++
			resumes = append(resumes, resumeJob{wc.idx, wc.params, g, e})
		}
		sort.Ints(g.order)
		tree.nodes += len(g.order)
		groups = append(groups, g)
	}
	sort.Ints(solos)
	// Shallow branches first: their checkpoints publish first.
	sort.SliceStable(resumes, func(a, b int) bool { return resumes[a].e.branch < resumes[b].e.branch })

	// One job queue for spines, solo cells, and resumes, in that order. The
	// ordering is the no-deadlock argument: a resume blocks on its entry's
	// ready channel, but by FIFO it is dequeued only after every spine job
	// was dequeued — and spines never wait on anything — so a blocked
	// resume's spine is always running or finished. The queue is
	// pre-filled: no producer goroutine to leak, and workers drain the
	// remainder instantly after cancellation.
	total := len(groups) + len(solos) + len(resumes)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > total {
		workers = total
	}
	type indexed struct {
		i   int
		res Result
	}
	finished := make(chan indexed)
	jobs := make(chan func(), total)
	for _, g := range groups {
		jobs <- func() { g.runSpine(ctx) }
	}
	for _, i := range solos {
		jobs <- func() {
			res := runCell(ctx, reg, cells[i], opt.Checkpoint)
			if warm && res.Meta != nil {
				res.Meta.Warm = tree.warmMeta(false, 0, 0)
			}
			finished <- indexed{i, res}
		}
	}
	for _, rj := range resumes {
		jobs <- func() { finished <- indexed{rj.idx, rj.run(ctx, reg, cells[rj.idx])} }
	}
	close(jobs)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				job()
			}
		}()
	}
	go func() {
		wg.Wait()
		close(finished)
	}()
	go func() {
		defer close(out)
		completed := 0
		for f := range finished {
			completed++
			out <- Update{Index: f.i, Result: f.res, Completed: completed, Total: len(cells)}
		}
	}()
	return out
}

// runCell executes one cell that no shared prefix serves. With a
// checkpoint store configured and a checkpointable cell it runs under the
// durable-checkpoint policy (resume probe, periodic saves); otherwise it
// runs plain. A cell cancelled before it starts is marked with the
// context error without computing (no Meta — no work was done); every
// computed cell carries its wall-clock duration in Result.Meta.
func runCell(ctx context.Context, reg *Registry, cell Cell, ck *CheckpointOptions) Result {
	if err := ctx.Err(); err != nil {
		return failedCell(reg, cell, err)
	}
	if r, handled, err := runCellCheckpointed(ctx, reg, cell, ck); handled {
		if err != nil {
			return failedCell(reg, cell, err)
		}
		return r
	}
	start := time.Now() //gasper:nondet wall-clock duration metadata only; never part of result identity
	r, err := reg.RunContext(ctx, cell.Scenario, cell.Params)
	if err != nil {
		r = failedCell(reg, cell, err)
	}
	r.Meta = RunMeta{DurationMS: float64(time.Since(start)) / float64(time.Millisecond)}.Merged(r.Meta) //gasper:nondet wall-clock duration metadata only; never part of result identity
	return r
}

// failedCell records a cell failure with the defaulted params when
// possible, so a failed cell still documents the run it attempted.
func failedCell(reg *Registry, cell Cell, err error) Result {
	p := cell.Params
	if s, ok := reg.Lookup(cell.Scenario); ok {
		p = p.WithDefaults(s.Defaults())
	}
	return Result{Scenario: cell.Scenario, Params: p, Err: err.Error()}
}

// run completes one grouped cell from its group's checkpoint. Warm
// resumes make no durable checkpoint writes: the shared in-memory
// snapshot already spares the cell its prefix.
func (rj resumeJob) run(ctx context.Context, reg *Registry, cell Cell) Result {
	g := rj.g
	if err := ctx.Err(); err != nil {
		g.tree.decref(rj.e)
		return failedCell(reg, cell, err)
	}
	start := time.Now() //gasper:nondet wall-clock duration metadata only; never part of result identity
	pre, saved, err := g.acquire(ctx, rj.e)
	var r Result
	if err == nil {
		r, err = g.fs.ResumeFrom(ctx, pre, rj.params)
	}
	g.tree.decref(rj.e)
	if err != nil {
		r = failedCell(reg, cell, err)
	} else {
		// Stamp provenance exactly as Registry.RunContext does on the
		// cold path.
		r.Scenario = g.fs.Name()
		r.Params = rj.params
	}
	r.Meta = RunMeta{
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond), //gasper:nondet wall-clock duration metadata only; never part of result identity
		Warm:       g.tree.warmMeta(true, rj.e.branch, saved),
	}.Merged(r.Meta)
	return r
}

// runSpine walks the group's branch epochs in order, extending one prefix
// chain and publishing a checkpoint at each. A RunTo failure fails that
// branch's entry but keeps walking from the last good prefix, so one bad
// extension does not doom deeper (independent) retries — under
// cancellation every remaining entry fails fast with the context error.
func (g *prefixGroup) runSpine(ctx context.Context) {
	var prev *Prefix
	for _, b := range g.order {
		e := g.entries[b]
		if err := ctx.Err(); err != nil {
			g.tree.publishErr(e, err)
			continue
		}
		pre, err := g.fs.RunTo(ctx, g.params, prev, b)
		if err != nil {
			g.tree.publishErr(e, err)
			continue
		}
		g.tree.publish(e, pre, prev)
		prev = pre
	}
	g.tree.mu.Lock()
	g.spineDone = true
	g.tree.mu.Unlock()
}

// acquire hands a resume its checkpoint, rebuilding it first if the budget
// evicted it. Returns the prefix and the number of prefix epochs this cell
// did not have to simulate (for WarmMeta.EpochsSaved).
func (g *prefixGroup) acquire(ctx context.Context, e *prefixEntry) (*Prefix, int, error) {
	select { //gasper:nondet completion-vs-cancellation: the value path is deterministic and cancellation aborts the cell
	case <-e.ready:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	t := g.tree
	for {
		t.mu.Lock()
		switch e.state {
		case stateLive:
			pre := e.prefix
			t.hits++
			// Last consumer, spine finished, nothing aliasing or pinning
			// this checkpoint: hand it over Owned, so the resume may adopt
			// the snapshot's state instead of deep-copying it. The entry is
			// consumed here — released and uncharged — because after
			// adoption the snapshot no longer holds restorable state.
			if e.refs == 1 && e.pins == 0 && g.spineDone && !g.aliasedLocked(e) {
				owned := *pre
				owned.Owned = true
				t.resident -= e.bytes
				e.bytes = 0
				e.prefix = nil
				e.state = stateReleased
				t.mu.Unlock()
				return &owned, owned.Epoch, nil
			}
			t.mu.Unlock()
			return pre, pre.Epoch, nil

		case stateFailed:
			err := e.err
			t.mu.Unlock()
			return nil, 0, err

		case stateEvicted:
			e.state = stateRebuilding
			e.rebuildCh = make(chan struct{})
			ancEntry := g.nearestLiveAncestorLocked(e.branch)
			var anc *Prefix
			if ancEntry != nil {
				// Pin the ancestor for the duration of the rebuild: RunTo
				// reads its snapshot, so it must not be handed to its own
				// resume as Owned (adoption would mutate it mid-read).
				// Eviction and release stay safe — the prefix pointer is
				// immutable and held here.
				anc = ancEntry.prefix
				ancEntry.pins++
			}
			t.mu.Unlock()

			pre, err := g.fs.RunTo(ctx, g.params, anc, e.branch)

			t.mu.Lock()
			if ancEntry != nil {
				ancEntry.pins--
			}
			ch := e.rebuildCh
			e.rebuildCh = nil
			if err != nil {
				if ctx.Err() != nil {
					// Cancellation is not the checkpoint's fault: leave it
					// evicted so the state machine stays consistent;
					// waiting siblings observe their own context.
					e.state = stateEvicted
				} else {
					e.state, e.err = stateFailed, err
				}
				t.mu.Unlock()
				close(ch)
				return nil, 0, err
			}
			e.prefix = pre
			e.state = stateLive
			t.rebuilt++
			if anc == nil || pre != anc {
				t.chargeLocked(e, pre)
			}
			t.mu.Unlock()
			close(ch)
			saved := 0
			if anc != nil {
				saved = anc.Epoch
			}
			return pre, saved, nil

		case stateRebuilding:
			ch := e.rebuildCh
			t.mu.Unlock()
			select { //gasper:nondet completion-vs-cancellation: the value path is deterministic and cancellation aborts the cell
			case <-ch:
			case <-ctx.Done():
				return nil, 0, ctx.Err()
			}

		default:
			// pending after ready, or released while this cell holds a
			// ref: both would be scheduler bugs.
			st := e.state
			t.mu.Unlock()
			return nil, 0, fmt.Errorf("engine: warm-start checkpoint at branch %d in unexpected state %d", e.branch, st)
		}
	}
}

// nearestLiveAncestorLocked finds the deepest resident checkpoint strictly
// below the given branch in this group, for rebuilding from. Caller holds
// tree.mu.
func (g *prefixGroup) nearestLiveAncestorLocked(branch int) *prefixEntry {
	for i := sort.SearchInts(g.order, branch) - 1; i >= 0; i-- {
		if e := g.entries[g.order[i]]; e.state == stateLive {
			return e
		}
	}
	return nil
}

// aliasedLocked reports whether another entry still references the same
// prefix (Done prefixes alias across deeper branches). Caller holds
// tree.mu.
func (g *prefixGroup) aliasedLocked(e *prefixEntry) bool {
	for _, o := range g.entries {
		if o != e && o.prefix == e.prefix {
			return true
		}
	}
	return false
}

// publish marks an entry live with the spine's freshly extended prefix.
// When RunTo returned the previous checkpoint unchanged (a Done prefix —
// the scenario concluded before this branch), the entry aliases the same
// snapshot and is charged zero bytes.
func (t *snapshotTree) publish(e *prefixEntry, pre, prev *Prefix) {
	t.mu.Lock()
	e.prefix = pre
	e.state = stateLive
	if pre != prev {
		t.chargeLocked(e, pre)
	}
	t.mu.Unlock()
	close(e.ready)
}

func (t *snapshotTree) publishErr(e *prefixEntry, err error) {
	t.mu.Lock()
	e.state, e.err = stateFailed, err
	t.mu.Unlock()
	close(e.ready)
}

// chargeLocked accounts a freshly resident snapshot against the budget
// and the peak. Caller holds t.mu.
func (t *snapshotTree) chargeLocked(e *prefixEntry, pre *Prefix) {
	e.bytes = pre.Snap.Bytes()
	t.resident += e.bytes
	if t.resident > t.peak {
		t.peak = t.resident
	}
	t.enforceBudgetLocked(e)
}

// enforceBudgetLocked evicts resident checkpoints, lowest branch epoch
// first (the cheapest to rebuild), until the budget holds again — never
// the entry just published (evicting it would thrash: its consumer is by
// definition about to need it). Aliases are skipped: they hold no bytes of
// their own, so evicting one frees nothing. Caller holds t.mu.
//
// Eviction is always safe: prefixes are immutable, so a resume already
// holding the pointer is unaffected; later resumes rebuild.
func (t *snapshotTree) enforceBudgetLocked(keep *prefixEntry) {
	if t.budget <= 0 {
		return
	}
	for t.resident > t.budget {
		var victim *prefixEntry
		for _, e := range t.entries {
			if e == keep || e.state != stateLive || e.bytes == 0 {
				continue
			}
			if victim == nil || e.branch < victim.branch {
				victim = e
			}
		}
		if victim == nil {
			return // only the just-published snapshot remains; keep it
		}
		t.resident -= victim.bytes
		victim.bytes = 0
		victim.prefix = nil
		victim.state = stateEvicted
	}
}

// decref retires one cell's claim on a checkpoint; the last claim releases
// the snapshot.
func (t *snapshotTree) decref(e *prefixEntry) {
	t.mu.Lock()
	e.refs--
	if e.refs <= 0 && e.state != stateRebuilding {
		if e.state == stateLive {
			t.resident -= e.bytes
		}
		e.bytes = 0
		e.prefix = nil
		e.state = stateReleased
	}
	t.mu.Unlock()
}

// warmMeta snapshots the sweep-wide counters for one cell's RunMeta.
func (t *snapshotTree) warmMeta(hit bool, branch, saved int) *WarmMeta {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &WarmMeta{
		Hit:               hit,
		BranchEpoch:       branch,
		EpochsSaved:       saved,
		PrefixNodes:       t.nodes,
		SnapshotHits:      t.hits,
		Rebuilt:           t.rebuilt,
		PeakResidentBytes: t.peak,
	}
}
