// Command perfbench is the repository benchmark. It drives the program
// through its public entry points (gasperleak.Client, engine.Registry,
// server.New(...).Handler() over a loopback listener) on one of three
// workloads, checks every output, and prints one JSON result line.
//
//	perfbench --workload leak|sweep|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same workload with span tracing and a CPU profile on and prints the
// per-layer metrics instead. See README.md for the workloads, the metrics
// and how they interact.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
)

// goldenSeed is the seed whose outputs are pinned by goldens/<workload>.json.
const goldenSeed = 1

// workdir holds the result stores of a run (removed on exit), relative to
// the checkout root the benchmark runs from.
const workdir = ".bench_build/work"

// Each run sets its workload up at least setupReps times and until
// setupMin has passed, so cheap set-ups are repeated often enough for a
// steady median; setup_s is the median.
const (
	setupReps = 5
	setupMin  = 2 * time.Second
)

func main() {
	var (
		workload     = flag.String("workload", "", "workload to run: leak, sweep or serve")
		seed         = flag.Int64("seed", goldenSeed, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 35, "length of the measured window in seconds")
		trace        = flag.Int("trace", 0, "1 = record spans and a CPU profile and print per-layer metrics")
		writeGoldens = flag.Bool("write-goldens", false, "record this run's payload hashes as the goldens instead of checking them (seed 1 only)")
		toConflict   = flag.Bool("to-conflict", false, "leak only: run one cell to the scenario's default horizon and check the conflict epoch")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want leak, sweep or serve)", *workload))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace wants 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("--seconds wants a positive value, got %v", *seconds))
	}
	if *toConflict && *workload != "leak" {
		fail(fmt.Errorf("--to-conflict applies to the leak workload only"))
	}
	if *writeGoldens && *seed != goldenSeed {
		fail(fmt.Errorf("--write-goldens records seed %d only", goldenSeed))
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fail(err)
	}
	b, err := newBench(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fail(err)
	}
	b.writeGoldens = *writeGoldens
	b.toConflict = *toConflict

	host := fingerprint()
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(hostLine))

	ctx := context.Background()
	if err := run(ctx, b); err != nil {
		b.mismatch("%s: %v", *workload, err)
	}
	b.cleanup()
	if b.writeGoldens {
		if err := b.saveGoldens(); err != nil {
			fail(err)
		}
	} else if b.seed == goldenSeed && b.goldenChecked == 0 {
		b.mismatch("no payload was checked against goldens/%s.json", *workload)
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", e)
	}
	res := b.result()
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *bench) error{
	"leak":  runLeak,
	"sweep": runSweep,
	"serve": runServe,
}

// bench is the state of one benchmark run: its inputs, the registry the
// workload drives, and everything measured and checked.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	tr       *tracer          // nil on untraced runs
	reg      *engine.Registry // engine.Default, or its traced twin

	writeGoldens  bool
	toConflict    bool
	goldens       map[string]string // cell key -> payload hash
	newGoldens    map[string]string
	goldenChecked int

	attempted, failed int
	errs              []string
	dirs              []string // scratch directories to remove

	e2e   map[string]float64
	layer map[string]float64

	profile   bytes.Buffer // CPU profile of the measured window (traced runs)
	memBefore runtime.MemStats
	measuring time.Time
	cpuStart  time.Duration
	rss       *rssSampler
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func newBench(workload string, seed int64, seconds time.Duration, trace bool) (*bench, error) {
	b := &bench{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		reg:      engine.Default,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
	}
	if trace {
		b.tr = &tracer{}
		reg, err := b.tr.tracedRegistry()
		if err != nil {
			return nil, err
		}
		b.reg = reg
	}
	g, err := loadGoldens(workload)
	if err != nil {
		return nil, err
	}
	b.goldens = g
	return b, nil
}

// mismatch records an incorrect output: the run fails.
func (b *bench) mismatch(format string, args ...any) {
	b.errs = append(b.errs, fmt.Sprintf(format, args...))
}

// opFailed records an operation that answered wrongly: it counts in
// ok_share and fails the run.
func (b *bench) opFailed(format string, args ...any) {
	b.failed++
	b.mismatch(format, args...)
}

// opError records an operation that was refused or errored without
// producing an output to check: it lowers ok_share but does not by
// itself fail the run, so a program that starts refusing work shows as
// an ok_share regression.
func (b *bench) opError(format string, args ...any) {
	b.failed++
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", fmt.Sprintf(format, args...))
}

// tempDir makes a fresh scratch directory under the work directory.
func (b *bench) tempDir(prefix string) (string, error) {
	d, err := os.MkdirTemp(workdir, prefix)
	if err != nil {
		return "", err
	}
	b.dirs = append(b.dirs, d)
	return d, nil
}

func (b *bench) cleanup() {
	for _, d := range b.dirs {
		os.RemoveAll(d)
	}
}

// setup runs fn at least setupReps times and for at least setupMin,
// records the median as setup_s, and returns the teardown of the last
// repetition; earlier repetitions are torn down at once.
func (b *bench) setup(fn func() (teardown func(), err error)) (func(), error) {
	var times []float64
	var last func()
	for begin := time.Now(); len(times) < setupReps || time.Since(begin) < setupMin; {
		if last != nil {
			last()
		}
		start := time.Now()
		td, err := fn()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		last = td
	}
	b.e2e["setup_s"] = median(times)
	fmt.Printf("setup %d reps: median %.4fs, q1 %.4fs, q3 %.4fs\n", len(times),
		median(times), percentile(times, 0.25), percentile(times, 0.75))
	return last, nil
}

// startMeasure opens the measured window: allocation counters, and on
// traced runs the CPU profile.
func (b *bench) startMeasure() error {
	runtime.GC()
	runtime.ReadMemStats(&b.memBefore)
	if b.tr != nil {
		b.profile.Reset()
		if err := pprof.StartCPUProfile(&b.profile); err != nil {
			return err
		}
	}
	b.measuring = time.Now()
	b.cpuStart = cpuTime()
	b.rss = startRSSSampler()
	return nil
}

// more reports whether a window that has run for elapsed, whose latest
// unit of work took last, should start another unit: it stops when that
// unit would end more than half its length past the window, so runs end
// close to --seconds whatever the unit size.
func (b *bench) more(elapsed, last time.Duration) bool {
	return elapsed+last/2 < b.seconds
}

// stopMeasure closes the measured window and returns its length.
func (b *bench) stopMeasure() time.Duration {
	wall := time.Since(b.measuring)
	fmt.Printf("window %.3fs wall, %.3fs cpu\n", wall.Seconds(), (cpuTime() - b.cpuStart).Seconds())
	if b.tr != nil {
		pprof.StopCPUProfile()
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.layer["runtime.alloc_mb"] = float64(after.TotalAlloc-b.memBefore.TotalAlloc) / (1 << 20)
	b.layer["runtime.gc_cycles"] = float64(after.NumGC - b.memBefore.NumGC)
	b.e2e["peak_rss_mb"] = b.rss.stop()
	return wall
}

// payloadOf is a result's deterministic payload: its JSON with execution
// metadata stripped.
func payloadOf(res engine.Result) []byte {
	data, err := json.Marshal(res.WithoutMeta())
	if err != nil {
		panic(err) // engine.Result always marshals
	}
	return data
}

// checkGolden compares one cell's payload with the pinned hash (golden
// seed only), or records it when writing goldens. Goldens are keyed by
// the cell's request JSON, the program's wire format.
func (b *bench) checkGolden(cell engine.Cell, payload []byte) {
	if b.seed != goldenSeed {
		return
	}
	k, err := json.Marshal(cell)
	if err != nil {
		b.mismatch("golden key for %s: %v", cell.Scenario, err)
		return
	}
	key := string(k)
	sum := sha256.Sum256(payload)
	hash := hex.EncodeToString(sum[:8])
	if b.writeGoldens {
		if b.newGoldens == nil {
			b.newGoldens = map[string]string{}
		}
		b.newGoldens[key] = hash
		return
	}
	want, ok := b.goldens[key]
	if !ok {
		return
	}
	b.goldenChecked++
	if want != hash {
		b.opFailed("%s: payload hash %s, golden %s", key, hash, want)
	}
}

// goldenPath is where a workload's goldens live, relative to the
// checkout root the benchmark runs from.
func goldenPath(workload string) string {
	return filepath.Join("perfbench", "goldens", workload+".json")
}

func loadGoldens(workload string) (map[string]string, error) {
	data, err := os.ReadFile(goldenPath(workload))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	g := map[string]string{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(workload), err)
	}
	return g, nil
}

// saveGoldens merges this run's hashes into the workload's goldens.
func (b *bench) saveGoldens() error {
	merged := map[string]string{}
	for k, v := range b.goldens {
		merged[k] = v
	}
	for k, v := range b.newGoldens {
		merged[k] = v
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(b.workload)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(b.workload), append(data, '\n'), 0o644)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (b *bench) result() result {
	attempted := b.attempted
	if attempted < 1 {
		attempted = 1
	}
	failed := b.failed
	if failed > attempted {
		failed = attempted
	}
	b.e2e["ok_share"] = float64(attempted-failed) / float64(attempted)
	res := result{Correct: len(b.errs) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if b.tr == nil {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{b.e2e[m.name], m.unit}
		}
		return res
	}
	b.traceLayers()
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{b.layer[m.name], m.unit}
	}
	return res
}

// traceLayers fills the per-layer metrics that come from the tracer and
// the CPU profile, and the traced end-to-end figures.
func (b *bench) traceLayers() {
	for _, name := range []string{"epochs_per_s", "cells_per_s", "latency_p50_ms", "latency_p99_ms"} {
		b.layer["traced."+name] = b.e2e[name]
	}
	t := b.tr
	t.mu.Lock()
	b.layer["engine.cell_p50_ms"] = percentile(t.cellMS, 0.50)
	b.layer["engine.cell_p99_ms"] = percentile(t.cellMS, 0.99)
	b.layer["warmstart.prefix_s"] = t.prefix.Seconds()
	b.layer["warmstart.resume_s"] = t.resume.Seconds()
	b.layer["codec.encode_s"] = t.encode.Seconds()
	b.layer["codec.decode_s"] = t.decode.Seconds()
	b.layer["store.ckpt_save_s"] = t.ckptSave.Seconds()
	b.layer["server.self_ms"] = percentile(t.selfMS, 0.50)
	t.mu.Unlock()

	samples, err := parseCPUProfile(b.profile.Bytes())
	if err != nil {
		b.mismatch("cpu profile: %v", err)
		return
	}
	lp := summarize(samples)
	b.layer["profile.total_s"] = lp.total
	for _, m := range perLayer {
		if mod, ok := strings.CutSuffix(m.name, ".self_s"); ok {
			b.layer[m.name] = lp.self[mod]
		}
	}
	for _, e := range cumulativeEntries {
		b.layer[e.metric] = lp.cumulative[e.metric]
	}
	fmt.Println(profileTable(lp))
}

// profileTable renders the module shares of a profile, largest first, as
// one line for the log.
func profileTable(lp layerProfile) string {
	type share struct {
		mod  string
		secs float64
	}
	var shares []share
	for m, s := range lp.self {
		shares = append(shares, share{m, s})
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].secs != shares[j].secs {
			return shares[i].secs > shares[j].secs
		}
		return shares[i].mod < shares[j].mod
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile %.2fs:", lp.total)
	for _, s := range shares {
		fmt.Fprintf(&sb, " %s %.1f%%", s.mod, 100*s.secs/lp.total)
	}
	return sb.String()
}

// median of xs (0 when empty).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between the closest ranks (0 when
// empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
