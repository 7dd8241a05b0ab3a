package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// moduleOf maps a function (and the file defining it) to the module
// per-module attribution reports it under: sim, fabric, lci, lcice, mpi,
// mpice, parsec or taskpool. An allocation or CPU sample belongs to its
// innermost frame in one of them; frames of helper packages (core, buf,
// metrics, ...) map to "" and pass the cost to their caller.
func moduleOf(fn, file string) string {
	const root = "amtlci/internal/"
	if !strings.HasPrefix(fn, root) {
		return ""
	}
	pkg := fn[len(root):]
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch pkg {
	case "sim", "fabric", "lci", "mpi":
		return pkg
	case "core/lcice":
		return "lcice"
	case "core/mpice":
		return "mpice"
	case "parsec":
		// parsec.GraphPool is a taskpool that happens to live in the
		// runtime's package.
		if strings.HasSuffix(file, "/graphpool.go") {
			return "taskpool"
		}
		return "parsec"
	case "hicma", "cholesky", "tlr", "linalg":
		return "taskpool"
	}
	return ""
}

// stackModule attributes one stack, innermost frame first: to its innermost
// module frame, to "other" when only helper frames of the program appear,
// and to "" when no program frame appears (the benchmark's own work).
func stackModule(frames []frameInfo) string {
	program := false
	for _, f := range frames {
		if m := moduleOf(f.fn, f.file); m != "" {
			return m
		}
		program = program || strings.HasPrefix(f.fn, "amtlci/internal/")
	}
	if program {
		return "other"
	}
	return ""
}

type frameInfo struct{ fn, file string }

// memRecords snapshots the heap profile. Records reflect allocations up to
// the last completed GC cycle; callers run runtime.GC first.
func memRecords() []runtime.MemProfileRecord {
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			return recs[:m]
		}
		n = m
	}
}

// allocProfileRate is the heap profile's sampling rate in the alloc pass:
// one sample per 512 allocated bytes on average. Recording every
// allocation (rate 1) costs ~5 us each, 40-90 s per full-size pass; at 512
// B the pass costs seconds and a module with 1% of the allocations still
// gets ~10^4 samples.
const allocProfileRate = 512

// allocsByModule estimates, per module, the allocations made between two
// heap profile snapshots taken at allocProfileRate. Each record's sampled
// count is scaled by the inverse of its sampling probability, as pprof
// does.
func allocsByModule(before, after []runtime.MemProfileRecord) map[string]float64 {
	// The profile keeps one record per (stack, object size).
	type key struct {
		stk  [32]uintptr
		size int64
	}
	size := func(r runtime.MemProfileRecord) int64 {
		if r.AllocObjects == 0 {
			return 0
		}
		return r.AllocBytes / r.AllocObjects
	}
	delta := make(map[key]int64, len(after))
	for _, r := range after {
		delta[key{r.Stack0, size(r)}] += r.AllocObjects
	}
	for _, r := range before {
		delta[key{r.Stack0, size(r)}] -= r.AllocObjects
	}
	out := make(map[string]float64)
	for k, n := range delta {
		if n <= 0 {
			continue
		}
		var frames []frameInfo
		r := runtime.MemProfileRecord{Stack0: k.stk}
		it := runtime.CallersFrames(r.Stack())
		for {
			f, more := it.Next()
			frames = append(frames, frameInfo{f.Function, f.File})
			if !more {
				break
			}
		}
		if m := stackModule(frames); m != "" {
			out[m] += float64(n) / (1 - math.Exp(-float64(k.size)/allocProfileRate))
		}
	}
	return out
}

// cpuByModule reads a CPU profile (runtime/pprof's gzipped protobuf) and
// returns each module's share of sampled CPU time, plus "gc" for the
// collector's own work (background marking, assists, sweeping) and "other"
// for everything else.
func cpuByModule(prof []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	ns := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if len(s.values) < 2 {
			continue
		}
		v := s.values[1] // cpu nanoseconds
		total += v
		var frames []frameInfo
		gc := false
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				f := p.funcs[fid]
				name := p.str(f.name)
				if strings.HasPrefix(name, "runtime.gc") || name == "runtime.bgsweep" || name == "runtime.bgscavenge" {
					gc = true
				}
				frames = append(frames, frameInfo{name, p.str(f.file)})
			}
		}
		m := stackModule(frames)
		switch {
		case gc:
			m = "gc"
		case m == "":
			m = "other"
		}
		ns[m] += v
	}
	out := make(map[string]float64, len(ns))
	if total == 0 {
		return out, nil
	}
	for m, v := range ns {
		out[m] = float64(v) / float64(total)
	}
	return out, nil
}

// profile holds the parts of a pprof protobuf that attribution needs.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcs    map[uint64]function
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

type function struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errProto = errors.New("cpu profile: malformed protobuf")

// pbField iterates the fields of one protobuf message.
type pbField struct {
	num  int
	wire int
	v    uint64 // varint value
	b    []byte // length-delimited payload
}

func pbNext(b []byte) (pbField, []byte, error) {
	key, b, err := pbVarint(b)
	if err != nil {
		return pbField{}, nil, err
	}
	f := pbField{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		f.v, b, err = pbVarint(b)
	case 1:
		if len(b) < 8 {
			return f, nil, errProto
		}
		b = b[8:]
	case 2:
		var n uint64
		n, b, err = pbVarint(b)
		if err == nil && n > uint64(len(b)) {
			err = errProto
		}
		if err == nil {
			f.b, b = b[:n], b[n:]
		}
	case 5:
		if len(b) < 4 {
			return f, nil, errProto
		}
		b = b[4:]
	default:
		err = errProto
	}
	return f, b, err
}

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// pbUints reads a repeated integer field, packed or not.
func pbUints(f pbField, out []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(out, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		var v uint64
		var err error
		v, b, err = pbVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: make(map[uint64][]uint64), funcs: make(map[uint64]function)}
	for len(b) > 0 {
		f, rest, err := pbNext(b)
		if err != nil {
			return nil, err
		}
		b = rest
		switch f.num {
		case 2: // sample
			s, err := parseSample(f.b)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			id, fns, err := parseLocation(f.b)
			if err != nil {
				return nil, err
			}
			p.locLines[id] = fns
		case 5: // function
			var id uint64
			var fn function
			m := f.b
			for len(m) > 0 {
				g, r, err := pbNext(m)
				if err != nil {
					return nil, err
				}
				m = r
				switch g.num {
				case 1:
					id = g.v
				case 2:
					fn.name = int64(g.v)
				case 4:
					fn.file = int64(g.v)
				}
			}
			p.funcs[id] = fn
		case 6: // string_table
			p.strings = append(p.strings, string(f.b))
		}
	}
	return p, nil
}

func parseSample(b []byte) (sample, error) {
	var s sample
	for len(b) > 0 {
		f, rest, err := pbNext(b)
		if err != nil {
			return s, err
		}
		b = rest
		switch f.num {
		case 1:
			if s.locs, err = pbUints(f, s.locs); err != nil {
				return s, err
			}
		case 2:
			var vs []uint64
			if vs, err = pbUints(f, nil); err != nil {
				return s, err
			}
			for _, v := range vs {
				s.values = append(s.values, int64(v))
			}
		}
	}
	return s, nil
}

func parseLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	for len(b) > 0 {
		f, rest, err := pbNext(b)
		if err != nil {
			return 0, nil, err
		}
		b = rest
		switch f.num {
		case 1:
			id = f.v
		case 4: // line
			m := f.b
			for len(m) > 0 {
				g, r, err := pbNext(m)
				if err != nil {
					return 0, nil, err
				}
				m = r
				if g.num == 1 {
					fns = append(fns, g.v)
				}
			}
		}
	}
	return id, fns, nil
}
