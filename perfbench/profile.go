package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// repoPrefix is the import-path prefix of the program's packages. Frames
// of the benchmark itself ("main." in its binary, repro/perfbench in its
// tests) are not program code.
const (
	repoPrefix  = "repro/"
	benchPrefix = "repro/perfbench"
)

// gcRoots are the runtime functions at the root of garbage-collector work
// that runs on its own goroutines (mark workers, sweeper, scavenger) or is
// charged to a mutator as assist. A stack containing one is GC time, no
// matter which program frame sits above it.
var gcRoots = []string{
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
}

// Module names for samples that charge to no program package.
const (
	moduleGC    = "runtime.gc"
	moduleOther = "other"
)

// cumulativeEntries maps a per-layer metric to the entry points whose
// cumulative time it reports, as "<module>.<function>": the function name
// with its receiver dropped, so a receiver type renamed by a later change
// still matches.
var cumulativeEntries = []struct {
	metric string
	funcs  []string
}{
	{"sim.step_s", []string{"sim.Step"}},
	{"sim.snapshot_s", []string{"sim.Snapshot"}},
	{"sim.new_s", []string{"sim.New", "sim.NewShell"}},
	{"beacon.boundary_s", []string{"beacon.ProcessEpochBoundary"}},
	{"slashing.observe_s", []string{"slashing.Observe"}},
	{"slashing.prune_s", []string{"slashing.Prune"}},
	{"attestation.add_s", []string{"attestation.Add"}},
	{"attestation.link_tally_s", []string{"attestation.AppendLinkTally"}},
	{"forkchoice.head_s", []string{"forkchoice.Head", "forkchoice.HeadFiltered"}},
	{"blocktree.compact_s", []string{"blocktree.Compact"}},
	{"store.put_s", []string{"store.Put"}},
	{"store.get_s", []string{"store.Get"}},
	{"codec.write_s", []string{"sim.WriteTo"}},
}

// moduleOf names the program module a function belongs to: the last
// element of its package path under the repository ("repro/internal/
// engine/warmstart.(*group).runSpine" is "warmstart"). ok is false for
// functions outside the program.
func moduleOf(fn string) (string, bool) {
	if !strings.HasPrefix(fn, repoPrefix) || strings.HasPrefix(fn, benchPrefix) {
		return "", false
	}
	pkg, _ := splitFunc(fn)
	return pkg[strings.LastIndexByte(pkg, '/')+1:], true
}

// splitFunc splits a symbol into its package path and its name within
// the package, receiver dropped and closure suffixes cut:
// "repro/internal/slashing.(*Detector).Observe.func1" is
// ("repro/internal/slashing", "Observe").
func splitFunc(fn string) (pkg, name string) {
	base := fn
	if i := strings.IndexByte(fn, '['); i >= 0 {
		base = fn[:i] // type arguments may hold paths of their own
	}
	slash := strings.LastIndexByte(base, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	pkg, name = fn[:slash+1+dot], fn[slash+2+dot:]
	if strings.HasPrefix(name, "(") {
		if end := strings.Index(name, ")."); end >= 0 {
			name = name[end+2:]
		}
	}
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i]
	}
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	return pkg, name
}

// attribute names the module one sample is charged to. The stack is
// ordered leaf first. GC work goes to runtime.gc; otherwise the innermost
// program frame wins, so runtime helpers (memmove, duffcopy, memeqbody,
// mallocgc) called from a module are that module's cost.
func attribute(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return moduleGC
			}
		}
	}
	for _, fn := range stack {
		if m, ok := moduleOf(fn); ok {
			return m
		}
	}
	return moduleOther
}

// entryKey renders a program function as "<module>.<name>" for matching
// against cumulativeEntries.
func entryKey(fn string) string {
	m, ok := moduleOf(fn)
	if !ok {
		return ""
	}
	_, name := splitFunc(fn)
	return m + "." + name
}

// cpuSample is one profile sample: its stack (leaf first) and its CPU
// time in seconds.
type cpuSample struct {
	stack []string
	secs  float64
}

// layerProfile is the per-module view of a CPU profile.
type layerProfile struct {
	total      float64
	self       map[string]float64 // module -> seconds
	cumulative map[string]float64 // cumulativeEntries metric -> seconds
}

// summarize charges every sample to one module and sums the cumulative
// time under each entry point (a sample counts once per metric even when
// the entry point recurses).
func summarize(samples []cpuSample) layerProfile {
	lp := layerProfile{self: map[string]float64{}, cumulative: map[string]float64{}}
	for _, s := range samples {
		lp.total += s.secs
		lp.self[attribute(s.stack)] += s.secs
		keys := make(map[string]bool, len(s.stack))
		for _, fn := range s.stack {
			if k := entryKey(fn); k != "" {
				keys[k] = true
			}
		}
		for _, e := range cumulativeEntries {
			for _, f := range e.funcs {
				if keys[f] {
					lp.cumulative[e.metric] += s.secs
					break
				}
			}
		}
	}
	return lp
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes, returning one cpuSample per sample. It reads only the fields it
// needs: sample types, samples, locations (with inlined lines), functions
// and the string table.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleUnits []int64 // string index of each sample type's unit
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id -> string index
		strs        []string
	)
	err = forEachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var unit int64
			err := forEachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 2 {
					unit = int64(v)
				}
				return nil
			})
			sampleUnits = append(sampleUnits, unit)
			return err
		case 2: // sample
			var s rawSample
			err := forEachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, u := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forEachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return forEachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forEachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; take the
	// nanoseconds column.
	col := -1
	for i, u := range sampleUnits {
		if str(u) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if col >= len(s.values) {
			return nil, errors.New("profile: sample without a value column")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		out = append(out, cpuSample{stack: stack, secs: float64(s.values[col]) / 1e9})
	}
	return out, nil
}

// forEachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or payload (wire type 2).
// Fixed-width fields are skipped.
func forEachField(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that may arrive unpacked
// (one value, wire type 0) or packed (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
