package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"runtime helper charged to its caller", []string{
			"runtime.duffcopy",
			"repro/internal/slashing.(*Detector).Observe",
			"repro/internal/beacon.(*Node).ReceiveAttestation",
			"repro/internal/sim.(*Simulation).Step",
		}, "slashing"},
		{"memeqbody under an inlined closure", []string{
			"runtime.memeqbody",
			"repro/internal/slashing.(*Detector).Prune.func1",
			"repro/internal/slashing.(*Detector).Prune",
		}, "slashing"},
		{"innermost program frame wins", []string{
			"runtime.mapaccess2",
			"repro/internal/attestation.(*Pool).Add",
			"repro/internal/sim.(*Cohort).deliver",
		}, "attestation"},
		{"nested package takes its last path element", []string{
			"repro/internal/engine/warmstart.(*group).runSpine",
			"repro/internal/engine/warmstart.Stream.func3",
		}, "warmstart"},
		{"type arguments holding paths", []string{
			"repro/internal/sim.sortBy[go.shape.struct { repro/internal/types.Root }]",
		}, "sim"},
		{"GC worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker",
		}, moduleGC},
		{"GC assist inside a module is GC", []string{
			"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc",
			"repro/internal/slashing.(*Detector).Observe",
		}, moduleGC},
		{"background sweeper", []string{"runtime.sweepone", "runtime.bgsweep"}, moduleGC},
		{"benchmark frames are not program code", []string{
			"repro/perfbench.runOpenLoop.func1", "runtime.goexit",
		}, moduleOther},
		{"benchmark wrapper around a module", []string{
			"repro/internal/engine.(*Registry).RunContext",
			"repro/perfbench.ctxPart.RunContext",
		}, "engine"},
		{"no program frame", []string{"runtime.futex", "runtime.mcall"}, moduleOther},
		{"empty stack", nil, moduleOther},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("%s: attribute = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestSummarizeCumulative(t *testing.T) {
	samples := []cpuSample{
		{stack: []string{
			"runtime.memeqbody",
			"repro/internal/slashing.(*Detector).Observe",
			"repro/internal/slashing.(*Detector).Observe", // recursion counts once
			"repro/internal/sim.(*Simulation).Step",
		}, secs: 0.5},
		{stack: []string{
			"repro/internal/attestation.(*Pool).AppendLinkTally",
			"repro/internal/beacon.(*Node).ProcessEpochBoundary",
			"repro/internal/sim.(*Simulation).Step",
		}, secs: 0.25},
		{stack: []string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, secs: 0.125},
		{stack: []string{"repro/internal/sim.NewShell", "repro/internal/engine.prefixSim"}, secs: 0.0625},
	}
	lp := summarize(samples)
	if lp.total != 0.9375 {
		t.Errorf("total = %v, want 0.9375", lp.total)
	}
	for mod, want := range map[string]float64{"slashing": 0.5, "attestation": 0.25, moduleGC: 0.125, "sim": 0.0625} {
		if lp.self[mod] != want {
			t.Errorf("self[%s] = %v, want %v", mod, lp.self[mod], want)
		}
	}
	for metric, want := range map[string]float64{
		"sim.step_s":               0.75,
		"slashing.observe_s":       0.5,
		"beacon.boundary_s":        0.25,
		"attestation.link_tally_s": 0.25,
		"sim.new_s":                0.0625,
		"slashing.prune_s":         0,
	} {
		if lp.cumulative[metric] != want {
			t.Errorf("cumulative[%s] = %v, want %v", metric, lp.cumulative[metric], want)
		}
	}
}

var spinSink uint64

//go:noinline
func spinForProfile(d time.Duration) {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	spinSink = x
}

// TestParseCPUProfile decodes a real runtime/pprof CPU profile.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin float64
	for _, s := range samples {
		total += s.secs
		for _, fn := range s.stack {
			if fn == "repro/perfbench.spinForProfile" {
				spin += s.secs
				break
			}
		}
	}
	if total <= 0 || spin < total/2 {
		t.Fatalf("profile: %.3fs total, %.3fs under spinForProfile; want most of it there", total, spin)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage input parsed without error")
	}
}
