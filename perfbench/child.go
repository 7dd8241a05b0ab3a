package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"amtlci/internal/sim"
)

// Each measurement pass runs in a child process of its own, so that peak
// RSS, GC state, the heap profile rate and the CPU profiler belong to that
// pass alone. The parent re-executes its own binary with childEnv set.
const childEnv = "PERFBENCH_CHILD"

// Pass kinds.
const (
	passRun   = "run"   // untraced: set-up time, Run time, allocations
	passSpan  = "span"  // boundary spans and counts
	passAlloc = "alloc" // every allocation attributed to a module
	passCPU   = "cpu"   // CPU profile attributed to a module
)

// setupsPerPass is how many times a run pass builds the job; it reports
// each build's time and runs the last one.
const setupsPerPass = 3

// passResult is what a child reports on its standard output.
type passResult struct {
	Err      string      `json:"err,omitempty"`
	FP       Fingerprint `json:"fp"`
	SetupS   []float64   `json:"setup_s,omitempty"`
	RunS     float64     `json:"run_s"`
	Events   uint64      `json:"events"`
	Mallocs  uint64      `json:"mallocs"`
	GCCycles uint32      `json:"gc_cycles"`
	Shards   int         `json:"shards"`
	Rounds   uint64      `json:"rounds,omitempty"`
	Elided   uint64      `json:"elided,omitempty"`
	// Counters are the layers' own registry totals, by "layer/name".
	Counters map[string]uint64 `json:"counters,omitempty"`

	// span pass
	Spans       map[string]spanStat `json:"spans,omitempty"`
	ClockNS     int64               `json:"clock_ns,omitempty"`
	FabricBytes uint64              `json:"fabric_bytes,omitempty"`
	// alloc pass
	Allocs map[string]float64 `json:"allocs,omitempty"`
	// cpu pass
	CPU map[string]float64 `json:"cpu,omitempty"`

	// Filled in by the parent from the child's resource usage.
	MaxRSSKB int64 `json:"-"`
}

// registryCounters lists the layer counters the per-layer metrics read.
var registryCounters = [][2]string{
	{"lci", "sent"}, {"lci", "retries"}, {"lci", "progress_calls"},
	{"lcice", "ams_sent"}, {"lcice", "puts_started"}, {"lcice", "deferred"},
	{"mpi", "received"}, {"mpi", "unexpected_hits"},
	{"mpice", "ams_sent"}, {"mpice", "puts_started"}, {"mpice", "deferred"}, {"mpice", "progress_passes"},
	{"parsec", "activates_sent"}, {"parsec", "gets_sent"},
}

// childMain runs one pass and writes its passResult as JSON.
func childMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench-child", flag.ContinueOnError)
	pass := fs.String("pass", passRun, "pass kind")
	wname := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 3, "workload seed")
	toy := fs.Bool("toy", false, "toy problem size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sz := FullSize
	if *toy {
		sz = ToySize
	}
	res := runPass(*pass, w, sz, *seed)
	if err := json.NewEncoder(out).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

func runPass(pass string, w Workload, sz Size, seed uint64) (res passResult) {
	if pass == passAlloc {
		runtime.MemProfileRate = allocProfileRate
	}
	var job *Job
	var tr *Tracer
	switch pass {
	case passRun:
		for range setupsPerPass {
			job = nil
			runtime.GC()
			t0 := time.Now()
			job = Setup(w, sz, seed)
			res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		}
	case passSpan:
		tr = NewTracer()
		var err error
		if job, err = SetupTraced(w, sz, seed, tr); err != nil {
			res.Err = err.Error()
			return res
		}
	case passAlloc, passCPU:
		job = Setup(w, sz, seed)
	default:
		res.Err = fmt.Sprintf("unknown pass %q", pass)
		return res
	}

	var prof bytes.Buffer
	var before []runtime.MemProfileRecord
	var m0, m1 runtime.MemStats
	runtime.GC()
	if pass == passAlloc {
		runtime.GC()
		before = memRecords()
	}
	if pass == passCPU {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			res.Err = err.Error()
			return res
		}
	}
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	d, err := job.RT.Run()
	res.RunS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	var after []runtime.MemProfileRecord
	switch pass {
	case passCPU:
		pprof.StopCPUProfile()
	case passAlloc:
		runtime.GC()
		runtime.GC()
		after = memRecords()
	}
	if err != nil {
		res.Err = err.Error()
		return res
	}

	res.FP = job.fingerprint(d)
	res.Events = job.events()
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.GCCycles = m1.NumGC - m0.NumGC
	res.Shards = job.Dom.Shards()
	if par, ok := job.Dom.(*sim.Parallel); ok {
		res.Rounds = par.Rounds()
		res.Elided = par.ElidedShardRounds()
	}
	res.Counters = make(map[string]uint64, len(registryCounters))
	for _, c := range registryCounters {
		res.Counters[c[0]+"/"+c[1]] = job.Reg.Total(c[0], c[1])
	}
	switch pass {
	case passSpan:
		res.Spans, res.FabricBytes = tr.totals()
		res.ClockNS = tr.clock
	case passAlloc:
		res.Allocs = allocsByModule(before, after)
	case passCPU:
		if res.CPU, err = cpuByModule(prof.Bytes()); err != nil {
			res.Err = err.Error()
		}
	}
	return res
}
