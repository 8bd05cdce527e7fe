package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares (a test keeps the two in step).
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the program sees, reported by every
// workload on untraced runs.
var endToEnd = []metricSpec{
	{"epochs_per_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"ok_share", "share"},
	{"setup_s", "s"},
}

// perLayer are the metrics of single layers, reported by traced runs.
var perLayer = buildPerLayer()

// profiledModules are the modules whose CPU self time a traced run
// reports: every program package, runtime.gc, and "other" for samples
// with no program frame (the benchmark itself, idle HTTP plumbing).
var profiledModules = []string{
	"slashing", "attestation", "forkchoice", "blocktree", "ffg", "incentives",
	"validator", "beacon", "sim", "network", "behavior", "core", "analytic",
	"engine", "warmstart", "store", "codec", "server", "gasperleak", "types",
	"crypto", "mathx", "report", moduleGC, moduleOther,
}

func buildPerLayer() []metricSpec {
	var out []metricSpec
	for _, m := range profiledModules {
		out = append(out, metricSpec{m + ".self_s", "s"})
	}
	out = append(out, metricSpec{"profile.total_s", "s"})
	for _, e := range cumulativeEntries {
		out = append(out, metricSpec{e.metric, "s"})
	}
	return append(out, []metricSpec{
		{"engine.cell_p50_ms", "ms"},
		{"engine.cell_p99_ms", "ms"},
		{"warmstart.prefix_s", "s"},
		{"warmstart.resume_s", "s"},
		{"codec.encode_s", "s"},
		{"codec.decode_s", "s"},
		{"store.ckpt_save_s", "s"},
		{"server.self_ms", "ms"},
		{"gen.late_ms", "ms"},
		{"server.from_lru", "count"},
		{"server.from_store", "count"},
		{"server.computed", "count"},
		{"server.rejected", "count"},
		{"store.hits", "count"},
		{"store.puts", "count"},
		{"store.bytes", "bytes"},
		{"warmstart.hit_ratio", "ratio"},
		{"warmstart.epochs_saved", "count"},
		{"warmstart.peak_resident_bytes", "bytes"},
		{"checkpoint.written", "count"},
		{"sim.tree_nodes", "count"},
		{"sim.tree_folded", "count"},
		{"sim.engine_bytes", "bytes"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cycles", "count"},
		{"traced.epochs_per_s", "1/s"},
		{"traced.cells_per_s", "1/s"},
		{"traced.latency_p50_ms", "ms"},
		{"traced.latency_p99_ms", "ms"},
	}...)
}

// host identifies the machine and the code a result came from, so
// results from different hosts or sources are never paired.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func fingerprint() host {
	h := host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest("."),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources and module files under root (dot
// directories skipped), identifying the code when no commit is at hand.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// rssSampleEvery is the resident-set sampling period.
const rssSampleEvery = 10 * time.Millisecond

// rssSampler samples the process's resident set size while the measured
// window is open.
type rssSampler struct {
	done    chan struct{}
	exited  chan struct{}
	samples []float64 // MB
}

func startRSSSampler() *rssSampler {
	r := &rssSampler{done: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(r.exited)
		tick := time.NewTicker(rssSampleEvery)
		defer tick.Stop()
		for {
			if mb, ok := residentMB(); ok {
				r.samples = append(r.samples, mb)
			}
			select {
			case <-r.done:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// stop ends sampling and returns the window's peak resident set: the 95th
// percentile of the samples. The absolute high-water mark of a small Go
// heap swings by a quarter from run to run with garbage-collector timing;
// the 95th percentile is the level the process holds for the busiest
// twentieth of the window.
func (r *rssSampler) stop() float64 {
	close(r.done)
	<-r.exited
	return percentile(r.samples, 0.95)
}

// residentMB reads the current resident set size from /proc/self/statm.
func residentMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}
