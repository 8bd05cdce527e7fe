package engine

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// memStore is an in-memory CheckpointStore for the runner tests (the
// durable tier's own torn-write/corruption table lives in
// internal/store). afterSave, when set, observes each successful save —
// the cancellation tests use it to cut the context at a precise
// checkpoint boundary.
type memStore struct {
	mu        sync.Mutex
	data      map[string][]byte
	saves     int
	loads     int
	deletes   int
	afterSave func(saves int)
}

func newMemStore() *memStore { return &memStore{data: make(map[string][]byte)} }

func (m *memStore) SaveCheckpoint(cellKey string, payload []byte) error {
	m.mu.Lock()
	m.data[cellKey] = append([]byte(nil), payload...)
	m.saves++
	saves := m.saves
	hook := m.afterSave
	m.mu.Unlock()
	if hook != nil {
		hook(saves)
	}
	return nil
}

func (m *memStore) LoadCheckpoint(cellKey string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.loads++
	payload, ok := m.data[cellKey]
	return payload, ok
}

func (m *memStore) DeleteCheckpoint(cellKey string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.data[cellKey]; ok {
		delete(m.data, cellKey)
		m.deletes++
	}
}

func (m *memStore) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.data)
}

// checkpointTestCells are fast parameterizations of the four
// checkpointable scenarios, each deep enough to cross several small
// checkpoint intervals.
var checkpointTestCells = []Cell{
	{Scenario: ScenarioSimDrops, Params: Params{P0: 0.5, N: 16, Horizon: 8, Seed: 1, Rate: 0.1}},
	{Scenario: ScenarioSimGST, Params: Params{P0: 0.5, N: 24, Horizon: 12, Seed: 3, GST: 6}},
	{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}},
	{Scenario: ScenarioSimSemiActive, Params: Params{P0: 0.5, Beta0: 0.25, N: 16, Horizon: 30, Seed: 1}},
}

// shrinkChunk lowers the checkpoint stepping bound for a test so small
// horizons cross multiple chunks.
func shrinkChunk(t *testing.T, chunk int) {
	t.Helper()
	prev := checkpointChunk
	checkpointChunk = chunk
	t.Cleanup(func() { checkpointChunk = prev })
}

// TestCheckpointableScenarioRegistration: every forkable sim scenario in
// the default registry also opts into durable checkpoints.
func TestCheckpointableScenarioRegistration(t *testing.T) {
	for _, name := range []string{ScenarioSimDrops, ScenarioSimGST, ScenarioSimLeak, ScenarioSimSemiActive} {
		s, ok := Default.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if _, ok := s.(CheckpointableScenario); !ok {
			t.Errorf("%s does not implement CheckpointableScenario", name)
		}
	}
}

// TestPrefixCodecRoundTrip is the prefix-level codec contract for all
// four scenarios: RunTo to a mid-cell epoch, encode, decode, resume —
// the result must be bit-identical (Meta aside) to the uninterrupted
// cold run.
func TestPrefixCodecRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, cell := range checkpointTestCells {
		t.Run(cell.Scenario, func(t *testing.T) {
			sc, ok := Default.Lookup(cell.Scenario)
			if !ok {
				t.Fatalf("%s not registered", cell.Scenario)
			}
			cs := sc.(CheckpointableScenario)
			p := cell.Params.WithDefaults(sc.Defaults())

			cold, err := sc.Run(p)
			if err != nil {
				t.Fatal(err)
			}

			_, branch, ok := cs.Fork(p)
			if !ok {
				t.Fatalf("Fork(%v) not ok", p)
			}
			mid := branch / 2
			if mid == 0 {
				mid = 1
			}
			pre, err := cs.RunTo(ctx, p, nil, mid)
			if err != nil {
				t.Fatal(err)
			}
			var blob bytes.Buffer
			if err := cs.EncodePrefix(&blob, pre); err != nil {
				t.Fatalf("EncodePrefix: %v", err)
			}
			dec, err := cs.DecodePrefix(bytes.NewReader(blob.Bytes()))
			if err != nil {
				t.Fatalf("DecodePrefix: %v", err)
			}
			if dec.Epoch != pre.Epoch || dec.Done != pre.Done || !dec.Owned {
				t.Fatalf("decoded prefix position = (epoch %d, done %t, owned %t), want (%d, %t, true)",
					dec.Epoch, dec.Done, dec.Owned, pre.Epoch, pre.Done)
			}
			warm, err := cs.ResumeFrom(ctx, dec, p)
			if err != nil {
				t.Fatalf("ResumeFrom(decoded): %v", err)
			}
			if got, want := warm.WithoutMeta(), cold.WithoutMeta(); !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded prefix's resume diverged from the cold run:\n  resumed: %+v\n  cold:    %+v", got, want)
			}
		})
	}
}

// TestPrefixCodecRejectsMismatch: a blob written by a different scenario
// or a skewed version decodes as an error (the runner's cold-start
// verdict), never as a wrong prefix.
func TestPrefixCodecRejectsMismatch(t *testing.T) {
	ctx := context.Background()
	leak, _ := Default.Lookup(ScenarioSimLeak)
	cs := leak.(CheckpointableScenario)
	p := Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}.WithDefaults(leak.Defaults())
	pre, err := cs.RunTo(ctx, p, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := cs.EncodePrefix(&blob, pre); err != nil {
		t.Fatal(err)
	}

	drops, _ := Default.Lookup(ScenarioSimDrops)
	if _, err := drops.(CheckpointableScenario).DecodePrefix(bytes.NewReader(blob.Bytes())); err == nil {
		t.Fatal("sim/drops decoded a sim/leak checkpoint")
	}
	skewed := append([]byte(nil), blob.Bytes()...)
	skewed[0]++ // prefixCodecVersion is the first little-endian u32
	if _, err := cs.DecodePrefix(bytes.NewReader(skewed)); err == nil {
		t.Fatal("version-skewed prefix decoded")
	}
	if _, err := cs.DecodePrefix(bytes.NewReader(blob.Bytes()[:blob.Len()/2])); err == nil {
		t.Fatal("truncated prefix decoded")
	}
}

// TestSweepCheckpointTransparent: a checkpointed sweep with no prior
// state produces results bit-identical to the plain sweep, writes
// periodic checkpoints while running, and leaves the store empty (every
// completed cell deletes its checkpoint).
func TestSweepCheckpointTransparent(t *testing.T) {
	shrinkChunk(t, 4)
	ctx := context.Background()
	cold := SweepContext(ctx, checkpointTestCells, Options{Workers: 2})

	ms := newMemStore()
	warm := SweepContext(ctx, checkpointTestCells, Options{
		Workers:    2,
		Checkpoint: &CheckpointOptions{Every: 8, Store: ms},
	})
	if got, want := StripMeta(warm), StripMeta(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpointed sweep diverged from the plain sweep:\n  checkpointed: %+v\n  plain:        %+v", got, want)
	}
	for i, r := range warm {
		ck := r.Meta.Checkpoint
		if ck == nil {
			t.Fatalf("cell %d carries no checkpoint meta: %+v", i, r.Meta)
		}
		if ck.Resumed {
			t.Errorf("cell %d claims a resume on an empty store", i)
		}
		if ck.Written == 0 {
			t.Errorf("cell %d wrote no checkpoints (meta %+v)", i, ck)
		}
	}
	if n := ms.len(); n != 0 {
		t.Fatalf("store holds %d checkpoints after all cells completed, want 0", n)
	}
	if ms.saves == 0 || ms.deletes == 0 {
		t.Fatalf("store never exercised: saves=%d deletes=%d", ms.saves, ms.deletes)
	}
}

// TestSweepCheckpointResume is the crash-resume contract at the sweep
// level: a cell whose store holds a mid-cell checkpoint (as a killed
// worker would leave behind) resumes from it — reporting the epochs it
// did not re-simulate — and its result is bit-identical to the cold run.
func TestSweepCheckpointResume(t *testing.T) {
	shrinkChunk(t, 4)
	ctx := context.Background()
	cell := Cell{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}}
	cold := SweepContext(ctx, []Cell{cell}, Options{Workers: 1})

	// Plant the checkpoint a crashed worker would have left at epoch 16.
	sc, _ := Default.Lookup(cell.Scenario)
	cs := sc.(CheckpointableScenario)
	p := cell.Params.WithDefaults(sc.Defaults())
	pre, err := cs.RunTo(ctx, p, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	ms := newMemStore()
	key, ok := CanonicalCellKey(Default, cell)
	if !ok {
		t.Fatal("no canonical key")
	}
	if err := savePrefixPayload(cs, ms, key, pre); err != nil {
		t.Fatal(err)
	}

	warm := SweepContext(ctx, []Cell{cell}, Options{
		Workers:    1,
		Checkpoint: &CheckpointOptions{Every: 8, Store: ms},
	})
	if got, want := StripMeta(warm), StripMeta(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed run diverged from the cold run:\n  resumed: %+v\n  cold:    %+v", got, want)
	}
	ck := warm[0].Meta.Checkpoint
	if ck == nil || !ck.Resumed || ck.ResumeEpoch != 16 || ck.EpochsSaved != 16 {
		t.Fatalf("checkpoint meta %+v, want resumed from epoch 16", ck)
	}
	if n := ms.len(); n != 0 {
		t.Fatalf("store holds %d checkpoints after completion, want 0", n)
	}
}

// TestSweepCheckpointUnderWarmStart: a warm sweep still checkpoints the
// cells it runs on their own. A lone forkable cell shares its prefix with
// no other cell, so it runs cold under the durable-checkpoint policy: on
// an empty store it writes periodic checkpoints, and from a planted one
// it resumes bit-identically.
func TestSweepCheckpointUnderWarmStart(t *testing.T) {
	shrinkChunk(t, 4)
	ctx := context.Background()
	cell := Cell{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}}
	cold := SweepContext(ctx, []Cell{cell}, Options{Workers: 1})
	ms := newMemStore()
	opt := Options{
		Workers:    1,
		WarmStart:  &WarmStartOptions{},
		Checkpoint: &CheckpointOptions{Every: 8, Store: ms},
	}

	fresh := SweepContext(ctx, []Cell{cell}, opt)
	if got, want := StripMeta(fresh), StripMeta(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("warm checkpointed run diverged from the cold run:\n  warm: %+v\n  cold: %+v", got, want)
	}
	m := fresh[0].Meta
	if m == nil || m.Warm == nil || m.Warm.Hit {
		t.Fatalf("meta %+v, want cold warm-start provenance (hit=false)", m)
	}
	if m.Checkpoint == nil || m.Checkpoint.Written == 0 || ms.saves == 0 {
		t.Fatalf("checkpoint meta %+v with %d saves, want periodic checkpoints", m.Checkpoint, ms.saves)
	}

	// Plant the checkpoint a crashed worker would have left at epoch 16.
	sc, _ := Default.Lookup(cell.Scenario)
	cs := sc.(CheckpointableScenario)
	pre, err := cs.RunTo(ctx, cell.Params.WithDefaults(sc.Defaults()), nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := CanonicalCellKey(Default, cell)
	if err := savePrefixPayload(cs, ms, key, pre); err != nil {
		t.Fatal(err)
	}
	resumed := SweepContext(ctx, []Cell{cell}, opt)
	if got, want := StripMeta(resumed), StripMeta(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("warm resumed run diverged from the cold run:\n  resumed: %+v\n  cold:    %+v", got, want)
	}
	if ck := resumed[0].Meta.Checkpoint; ck == nil || !ck.Resumed || ck.ResumeEpoch != 16 || ck.EpochsSaved != 16 {
		t.Fatalf("checkpoint meta %+v, want resumed from epoch 16", ck)
	}
	if n := ms.len(); n != 0 {
		t.Fatalf("store holds %d checkpoints after completion, want 0", n)
	}
}

// TestSweepCheckpointCorruptColdStart: an undecodable checkpoint payload
// (schema drift the store's framing cannot catch) is silently discarded —
// the cell starts cold, produces the correct result, and repairs the
// store.
func TestSweepCheckpointCorruptColdStart(t *testing.T) {
	shrinkChunk(t, 4)
	ctx := context.Background()
	cell := Cell{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}}
	cold := SweepContext(ctx, []Cell{cell}, Options{Workers: 1})

	ms := newMemStore()
	key, _ := CanonicalCellKey(Default, cell)
	ms.data[key] = []byte("not a checkpoint at all")

	warm := SweepContext(ctx, []Cell{cell}, Options{
		Workers:    1,
		Checkpoint: &CheckpointOptions{Every: 8, Store: ms},
	})
	if got, want := StripMeta(warm), StripMeta(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("corrupt-checkpoint run diverged from the cold run")
	}
	ck := warm[0].Meta.Checkpoint
	if ck == nil || ck.Resumed {
		t.Fatalf("checkpoint meta %+v, want a cold start", ck)
	}
	if n := ms.len(); n != 0 {
		t.Fatalf("store holds %d checkpoints after completion, want 0", n)
	}
}

// TestSweepCheckpointCancelResume: a cell cancelled mid-run (a draining
// worker) leaves its newest checkpoint in the store; a rerun against the
// same store resumes from it and matches the cold run bit-identically —
// kill-and-resume recomputes at most one checkpoint interval.
func TestSweepCheckpointCancelResume(t *testing.T) {
	shrinkChunk(t, 4)
	cell := Cell{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}}
	cold := SweepContext(context.Background(), []Cell{cell}, Options{Workers: 1})

	// Cut the context right after the second periodic save (epoch 16) —
	// the deterministic analogue of a drain signal landing mid-cell.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ms := newMemStore()
	ms.afterSave = func(saves int) {
		if saves == 2 {
			cancel()
		}
	}
	interrupted := SweepContext(ctx, []Cell{cell}, Options{
		Workers:    1,
		Checkpoint: &CheckpointOptions{Every: 8, Store: ms},
	})
	if interrupted[0].Err == "" {
		t.Fatal("cancelled cell reported no error")
	}
	if n := ms.len(); n != 1 {
		t.Fatalf("store holds %d checkpoints after the interrupted run, want 1", n)
	}

	ms.afterSave = nil
	resumed := SweepContext(context.Background(), []Cell{cell}, Options{
		Workers:    1,
		Checkpoint: &CheckpointOptions{Every: 8, Store: ms},
	})
	if got, want := StripMeta(resumed), StripMeta(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("killed-and-resumed run diverged from the uninterrupted run:\n  resumed: %+v\n  cold:    %+v", got, want)
	}
	ck := resumed[0].Meta.Checkpoint
	if ck == nil || !ck.Resumed || ck.ResumeEpoch != 16 || ck.EpochsSaved != 16 {
		t.Fatalf("checkpoint meta %+v, want resumed from epoch 16", ck)
	}
	if n := ms.len(); n != 0 {
		t.Fatalf("store holds %d checkpoints after completion, want 0", n)
	}
}

// TestCheckpointSkipsNonCheckpointable: cells of scenarios without the
// prefix codec (analytic scenarios, sim/bounce) run the plain path
// untouched — same results, no store traffic.
func TestCheckpointSkipsNonCheckpointable(t *testing.T) {
	cells := []Cell{
		{Scenario: ScenarioPartition, Params: Params{P0: 0.5}},
		{Scenario: ScenarioSimBounce, Params: Params{N: 40, Horizon: 8, GST: 2, P0: 0.7, Beta0: 0.25, Seed: 19}},
	}
	ctx := context.Background()
	cold := SweepContext(ctx, cells, Options{Workers: 1})
	ms := newMemStore()
	warm := SweepContext(ctx, cells, Options{
		Workers:    1,
		Checkpoint: &CheckpointOptions{Every: 8, Store: ms},
	})
	if got, want := StripMeta(warm), StripMeta(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint option perturbed non-checkpointable cells")
	}
	for i, r := range warm {
		if r.Meta.Checkpoint != nil {
			t.Errorf("cell %d carries checkpoint meta %+v, want none", i, r.Meta.Checkpoint)
		}
	}
	if ms.saves != 0 || ms.loads != 0 {
		t.Fatalf("store touched for non-checkpointable cells: saves=%d loads=%d", ms.saves, ms.loads)
	}
}

// TestCheckpointMetaMerged: serving layers stamping their own Meta must
// carry the checkpoint provenance a cell arrived with.
func TestCheckpointMetaMerged(t *testing.T) {
	ck := &CheckpointMeta{Resumed: true, ResumeEpoch: 4000, EpochsSaved: 4000, Written: 2}
	m := RunMeta{DurationMS: 5, Cached: true}.Merged(&RunMeta{Checkpoint: ck})
	if m.Checkpoint != ck {
		t.Fatalf("Merged dropped checkpoint provenance: %+v", m.Checkpoint)
	}
	own := &CheckpointMeta{Written: 1}
	if m = (RunMeta{Checkpoint: own}).Merged(&RunMeta{Checkpoint: ck}); m.Checkpoint != own {
		t.Fatal("Merged overwrote the layer's own checkpoint meta")
	}
}

// failStore breaks SaveCheckpoint; the run must still complete correctly.
type failStore struct{ memStore }

func (f *failStore) SaveCheckpoint(string, []byte) error {
	return errors.New("disk full")
}

// TestCheckpointSaveFailureHarmless: a store that cannot persist (disk
// full) only costs resume depth — the cell still completes with the
// correct result.
func TestCheckpointSaveFailureHarmless(t *testing.T) {
	shrinkChunk(t, 4)
	ctx := context.Background()
	cell := Cell{Scenario: ScenarioSimLeak, Params: Params{P0: 0.5, N: 16, Horizon: 40, Seed: 1}}
	cold := SweepContext(ctx, []Cell{cell}, Options{Workers: 1})
	fs := &failStore{memStore{data: make(map[string][]byte)}}
	warm := SweepContext(ctx, []Cell{cell}, Options{
		Workers:    1,
		Checkpoint: &CheckpointOptions{Every: 8, Store: fs},
	})
	if got, want := StripMeta(warm), StripMeta(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("save failures perturbed the result")
	}
	if ck := warm[0].Meta.Checkpoint; ck == nil || ck.Written != 0 {
		t.Fatalf("checkpoint meta %+v, want written=0 under a failing store", warm[0].Meta.Checkpoint)
	}
}
