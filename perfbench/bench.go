package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"amtlci/internal/core/stack"
)

//go:embed reference.json
var referenceJSON []byte

// Reference is reference.json: the default and held-out seeds, the
// simulated result each workload must reproduce on them, and the layer ->
// end-to-end -> workload predictions the benchmark was built to test.
type Reference struct {
	DefaultSeed uint64 `json:"default_seed"`
	HeldOutSeed uint64 `json:"heldout_seed"`
	// Fingerprints maps workload -> seed -> expected result.
	Fingerprints map[string]map[string]Fingerprint `json:"fingerprints"`
	// Predictions maps a layer to the end-to-end metrics and workloads its
	// per-layer metrics should move; the traced table prints them.
	Predictions map[string]string `json:"predictions"`
}

func loadReference() (*Reference, error) {
	var r Reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &r, nil
}

func (r *Reference) lookup(workload string, seed uint64) (Fingerprint, bool) {
	fp, ok := r.Fingerprints[workload][strconv.FormatUint(seed, 10)]
	return fp, ok
}

// minRuns is the fewest untraced runs a median is taken over, even when
// they overrun -seconds.
const minRuns = 4

// Bench measures one workload.
type Bench struct {
	W       Workload
	Size    Size
	Seed    uint64
	Seconds float64
	Trace   bool
	Ref     *Reference
	Exe     string    // binary the passes run in (this one, or a test binary)
	Log     io.Writer // human-readable progress and tables

	attempted, failed int
	want              *Fingerprint // the result every pass must reproduce
}

// Metric is one reported number. NA marks a metric whose layer does not
// run on the workload; it is printed as n/a, and as 0 in the JSON line,
// whose values must be numbers.
type Metric struct {
	Name  string
	Unit  string
	Value float64
	NA    bool
	Note  string // sample count or source, for the table
}

// Result is one workload's verdict and metrics.
type Result struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []Metric
}

func (b *Bench) logf(format string, args ...any) {
	fmt.Fprintf(b.Log, format+"\n", args...)
}

// pass runs one measurement pass of workload w in a child process.
func (b *Bench) pass(kind string, w Workload) (passResult, error) {
	args := []string{"-pass", kind, "-workload", w.Name, "-seed", strconv.FormatUint(b.Seed, 10)}
	if b.Size == ToySize {
		args = append(args, "-toy")
	}
	cmd := exec.Command(b.Exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return passResult{}, fmt.Errorf("%s pass of %s: %w", kind, w.Name, err)
	}
	var r passResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return passResult{}, fmt.Errorf("%s pass of %s: %w", kind, w.Name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.MaxRSSKB = ru.Maxrss
	}
	return r, nil
}

// checked runs a pass and checks its simulated result. A pass that fails
// to run, returns an error from Runtime.Run (which includes finishing
// without a termination announcement), or produces a different
// fingerprint counts as failed. It returns the result and whether the run
// completed at all (and so has measurements).
func (b *Bench) checked(kind string) (passResult, bool) {
	b.attempted++
	r, err := b.pass(kind, b.W)
	if err == nil && r.Err != "" {
		err = fmt.Errorf("%s pass of %s: %s", kind, b.W.Name, r.Err)
	}
	if err != nil {
		b.failed++
		b.logf("FAILED %v", err)
		return r, false
	}
	if b.want == nil {
		fp := r.FP
		b.want = &fp
	} else if r.FP != *b.want {
		b.failed++
		b.logf("FAILED %s pass: fingerprint %v, want %v", kind, r.FP, *b.want)
	}
	return r, true
}

// expect fixes the fingerprint every pass must reproduce: the stored one
// for a reference seed; the serial twin's for a sharded workload; else the
// first pass's.
func (b *Bench) expect() {
	if fp, ok := b.Ref.lookup(b.W.Name, b.Seed); ok {
		b.want = &fp
		b.logf("reference  %v (stored, seed %d)", fp, b.Seed)
		return
	}
	if b.W.SerialTwin == "" {
		return
	}
	twin, err := findWorkload(b.W.SerialTwin)
	if err == nil {
		b.attempted++
		var r passResult
		if r, err = b.pass(passRun, twin); err == nil && r.Err != "" {
			err = fmt.Errorf("%s: %s", twin.Name, r.Err)
		}
		if err == nil {
			b.want = &r.FP
			b.logf("reference  %v (serial twin %s)", r.FP, twin.Name)
			return
		}
	}
	b.failed++
	b.logf("FAILED serial twin: %v", err)
}

// Measure runs the workload's passes and computes its metrics.
func (b *Bench) Measure() Result {
	b.logf("perfbench workload=%s seed=%d trace=%v", b.W.Name, b.Seed, b.Trace)
	b.expect()
	var ms []Metric
	if b.Trace {
		ms = b.traced()
	} else {
		ms = b.untraced()
	}
	return Result{Workload: b.W.Name, Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: ms}
}

func (b *Bench) untraced() []Metric {
	start := time.Now()
	var runs []passResult
	for len(runs) < minRuns || time.Since(start).Seconds() < b.Seconds {
		r, ok := b.checked(passRun)
		if !ok {
			if time.Since(start).Seconds() >= b.Seconds {
				break
			}
			continue
		}
		runs = append(runs, r)
		b.logf("run %2d  setup_s=%.4f run_s=%.3f tasks=%d events=%d allocs=%d peak_rss_kb=%d  %v",
			len(runs), median(r.SetupS), r.RunS, r.FP.Tasks, r.Events, r.Mallocs, r.MaxRSSKB, r.FP)
	}
	var hostUS, allocs, rss, setup []float64
	for _, r := range runs {
		tasks := float64(r.FP.Tasks)
		hostUS = append(hostUS, r.RunS*1e6/tasks)
		allocs = append(allocs, float64(r.Mallocs)/tasks)
		rss = append(rss, float64(r.MaxRSSKB)/1024)
		setup = append(setup, r.SetupS...)
	}
	note := func(xs []float64) string {
		return fmt.Sprintf("median of %d, min %.6g, max %.6g", len(xs), slices.Min(xs), slices.Max(xs))
	}
	if len(runs) == 0 {
		note = func([]float64) string { return "no completed run" }
	}
	return []Metric{
		{Name: "host_us_per_task", Unit: "us", Value: median(hostUS), Note: note(hostUS)},
		{Name: "setup_s", Unit: "s", Value: median(setup), Note: note(setup)},
		{Name: "allocs_per_task", Unit: "allocs/task", Value: median(allocs), Note: note(allocs)},
		{Name: "peak_rss_mb", Unit: "MB", Value: median(rss), Note: note(rss)},
	}
}

// traced makes one pass of each kind: an untraced baseline, the boundary
// spans, the allocation attribution and the CPU profile.
func (b *Bench) traced() []Metric {
	res := map[string]passResult{}
	for _, kind := range []string{passRun, passSpan, passAlloc, passCPU} {
		r, ok := b.checked(kind)
		if !ok {
			continue
		}
		res[kind] = r
		b.logf("%-5s pass run_s=%.3f  %v", kind, r.RunS, r.FP)
	}
	base, span, alloc, cpu := res[passRun], res[passSpan], res[passAlloc], res[passCPU]
	if alloc.Allocs != nil {
		// What the sampled modules leave of the pass's exact allocation
		// count is "other", so that the modules sum to allocs_per_task. It
		// includes tiny objects packed into an already open 16-byte
		// block, which the heap profile never sees.
		var sum float64
		for _, n := range alloc.Allocs {
			sum += n
		}
		alloc.Allocs["other"] += float64(alloc.Mallocs) - sum
		b.logf("allocation attribution: %.0f of %d allocations estimated from the heap profile (untraced run: %d)", sum, alloc.Mallocs, base.Mallocs)
	}

	tasks := float64(base.FP.Tasks)
	lciRuns := b.W.Backend == stack.LCI
	sharded := b.W.Shards > 1
	var ms []Metric
	add := func(name, unit string, v float64, runs bool) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			runs = false
		}
		if !runs {
			v = 0
		}
		ms = append(ms, Metric{Name: name, Unit: unit, Value: v, NA: !runs})
	}
	perTask := func(n float64) float64 { return n / tasks }
	spanNS := func(l string) float64 { return float64(span.Spans[l].SelfNS) / float64(span.Spans[l].Calls) }
	ctr := func(name string) float64 { return float64(base.Counters[name]) }
	allocs := func(m string) float64 { return perTask(alloc.Allocs[m]) }
	have := func(r passResult) bool { return r.FP.Tasks > 0 }

	add("sim.events_per_task", "events/task", perTask(float64(base.Events)), have(base))
	add("sim.ns_per_event", "ns", base.RunS*1e9/float64(base.Events), have(base))
	add("sim.cpu_frac", "frac", cpu.CPU["sim"], have(cpu))
	add("sim.allocs_per_task", "allocs/task", allocs("sim"), have(alloc))
	add("sim.rounds_per_ktask", "rounds/ktask", 1000*perTask(float64(base.Rounds)), sharded && have(base))
	add("sim.events_per_round", "events/round", float64(base.Events)/float64(base.Rounds), sharded && have(base))
	add("sim.elided_round_frac", "frac", float64(base.Elided)/float64(base.Rounds*uint64(base.Shards)), sharded && have(base))

	add("fabric.sends_per_task", "msgs/task", perTask(float64(span.Spans["fabric"].Calls)), have(span))
	add("fabric.bytes_per_task", "B/task", perTask(float64(span.FabricBytes)), have(span))
	add("fabric.send_ns", "ns", spanNS("fabric"), have(span))
	add("fabric.cpu_frac", "frac", cpu.CPU["fabric"], have(cpu))
	add("fabric.allocs_per_task", "allocs/task", allocs("fabric"), have(alloc))

	// The library and engine layers' boundary times carry the role's name,
	// so that every workload reports them: lci and lcice on the LCI
	// backend, mpi and mpice on the MPI one.
	lib, engine := "lci", "lcice"
	if !lciRuns {
		lib, engine = "mpi", "mpice"
	}
	add("comm.deliver_ns", "ns", spanNS(lib), have(span))
	add("engine.call_ns", "ns", spanNS(engine), have(span))

	add("lci.progress_calls_per_task", "calls/task", perTask(ctr("lci/progress_calls")), lciRuns && have(base))
	add("lci.retry_frac", "frac", ctr("lci/retries")/ctr("lci/sent"), lciRuns && have(base))
	add("lci.allocs_per_task", "allocs/task", allocs("lci"), lciRuns && have(alloc))
	add("lci.cpu_frac", "frac", cpu.CPU["lci"], lciRuns && have(cpu))

	add("lcice.deferred_frac", "frac", ctr("lcice/deferred")/(ctr("lcice/ams_sent")+ctr("lcice/puts_started")), lciRuns && have(base))
	add("lcice.allocs_per_task", "allocs/task", allocs("lcice"), lciRuns && have(alloc))
	add("lcice.cpu_frac", "frac", cpu.CPU["lcice"], lciRuns && have(cpu))

	add("mpi.unexpected_frac", "frac", ctr("mpi/unexpected_hits")/ctr("mpi/received"), !lciRuns && have(base))
	add("mpi.allocs_per_task", "allocs/task", allocs("mpi"), !lciRuns && have(alloc))
	add("mpi.cpu_frac", "frac", cpu.CPU["mpi"], !lciRuns && have(cpu))

	add("mpice.progress_passes_per_task", "passes/task", perTask(ctr("mpice/progress_passes")), !lciRuns && have(base))
	add("mpice.deferred_frac", "frac", ctr("mpice/deferred")/(ctr("mpice/ams_sent")+ctr("mpice/puts_started")), !lciRuns && have(base))
	add("mpice.allocs_per_task", "allocs/task", allocs("mpice"), !lciRuns && have(alloc))
	add("mpice.cpu_frac", "frac", cpu.CPU["mpice"], !lciRuns && have(cpu))

	add("parsec.callbacks_per_task", "calls/task", perTask(float64(span.Spans["parsec"].Calls)), have(span))
	add("parsec.callback_ns", "ns", spanNS("parsec"), have(span))
	add("parsec.activates_per_task", "msgs/task", perTask(ctr("parsec/activates_sent")), have(base))
	add("parsec.gets_per_task", "msgs/task", perTask(ctr("parsec/gets_sent")), have(base))
	add("parsec.allocs_per_task", "allocs/task", allocs("parsec"), have(alloc))
	add("parsec.cpu_frac", "frac", cpu.CPU["parsec"], have(cpu))

	add("taskpool.calls_per_task", "calls/task", perTask(float64(span.Spans["taskpool"].Calls)), have(span))
	add("taskpool.call_ns", "ns", spanNS("taskpool"), have(span))
	add("taskpool.allocs_per_task", "allocs/task", allocs("taskpool"), have(alloc))
	add("taskpool.cpu_frac", "frac", cpu.CPU["taskpool"], have(cpu))

	add("other.allocs_per_task", "allocs/task", allocs("other"), have(alloc))
	add("other.cpu_frac", "frac", cpu.CPU["other"], have(cpu))
	add("gc.cpu_frac", "frac", cpu.CPU["gc"], have(cpu))
	add("gc.cycles_per_ktask", "cycles/ktask", 1000*perTask(float64(base.GCCycles)), have(base))

	// Span self times are clock-corrected; what they leave of the untraced
	// Run time (per shard, on a sharded domain) is sim dispatch and the
	// callbacks no public boundary sees. On a sharded domain taskpool time
	// is already inside its callers' spans, or outside every span.
	var self int64
	for l, s := range span.Spans {
		if !sharded || l != "taskpool" {
			self += s.SelfNS
		}
	}
	runNS := base.RunS * 1e9 * float64(max(base.Shards, 1))
	add("unattributed.self_frac", "frac", (runNS-float64(self))/runNS, have(span) && have(base))
	add("trace.overhead_frac", "frac", span.RunS/base.RunS-1, have(span) && have(base))

	var layers []string
	for _, m := range ms {
		if l, _, _ := strings.Cut(m.Name, "."); !slices.Contains(layers, l) {
			layers = append(layers, l)
		}
	}
	for _, l := range layers {
		b.logf("prediction %-12s %s", l+":", b.Ref.Predictions[l])
	}
	return ms
}

// median returns the middle of xs (mean of the middle two), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// write prints the metric table and, last, the JSON result line.
func (r Result) write(out io.Writer) error {
	var tw strings.Builder
	fmt.Fprintf(&tw, "== %s: correct=%v attempted=%d failed=%d failed_frac=%.4g\n",
		r.Workload, r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, m := range r.Metrics {
		v := strconv.FormatFloat(m.Value, 'g', 6, 64)
		if m.NA {
			v = "n/a"
		}
		fmt.Fprintf(&tw, "%-30s %14s %-12s %s\n", m.Name, v, m.Unit, m.Note)
	}
	if _, err := io.WriteString(out, tw.String()); err != nil {
		return err
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]jm{}}
	for _, m := range r.Metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) { // no completed run to measure
			v = 0
		}
		line.Metrics[m.Name] = jm{v, m.Unit}
	}
	return json.NewEncoder(out).Encode(line)
}
