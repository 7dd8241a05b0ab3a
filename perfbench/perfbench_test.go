package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"amtlci/internal/core/stack"
)

// The benchmark's passes run in child processes; in the test binary the
// child re-enters here.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// toy measures w at toy size and returns the result and everything it
// printed.
func toy(t *testing.T, w Workload, trace bool, ref *Reference) (Result, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	b := &Bench{W: w, Size: ToySize, Seed: 3, Seconds: 0.01, Trace: trace, Ref: ref, Exe: exe, Log: &out}
	r := b.Measure()
	if err := r.write(&out); err != nil {
		t.Fatal(err)
	}
	return r, out.String()
}

// lastJSON decodes the result line.
func lastJSON(t *testing.T, out string) map[string]struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
} {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || line.Metrics == nil {
		t.Fatalf("result line lacks a key: %s", lines[len(lines)-1])
	}
	return line.Metrics
}

// tableValue returns the printed value column of metric name.
func tableValue(t *testing.T, out, name, unit string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) >= 3 && f[0] == name {
			if f[1] != "n/a" && f[2] != unit {
				t.Errorf("%s printed with unit %q, want %q", name, f[2], unit)
			}
			return f[1]
		}
	}
	t.Errorf("%s not printed", name)
	return ""
}

var empty = &Reference{DefaultSeed: 3, HeldOutSeed: 11}

// notRunning lists, per workload, the per-layer metrics whose layer does
// not run there and so must print as n/a.
func notRunning(w Workload, name string) bool {
	layer, _, _ := strings.Cut(name, ".")
	switch {
	case w.Backend == stack.MPI && (layer == "lci" || layer == "lcice"):
		return true
	case w.Backend == stack.LCI && (layer == "mpi" || layer == "mpice"):
		return true
	case w.Shards <= 1 && (name == "sim.rounds_per_ktask" || name == "sim.events_per_round" || name == "sim.elided_round_frac"):
		return true
	}
	return false
}

func TestTracedPassesAgreeAndPrintEveryLayerMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			// No stored fingerprint: every pass must reproduce the untraced
			// run's result, and a sharded workload its serial twin's.
			r, out := toy(t, w, true, empty)
			if !r.Correct || r.Failed != 0 {
				t.Fatalf("traced passes disagree:\n%s", out)
			}
			if w.SerialTwin != "" && !strings.Contains(out, "(serial twin "+w.SerialTwin+")") {
				t.Errorf("sharded run not checked against its serial twin:\n%s", out)
			}
			js := lastJSON(t, out)
			if len(js) != len(spec.PerLayer) {
				t.Errorf("result has %d metrics, BENCHMARK.json lists %d per-layer metrics", len(js), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				v := tableValue(t, out, m.Name, m.Unit)
				if (v == "n/a") != notRunning(w, m.Name) {
					t.Errorf("%s printed %q", m.Name, v)
				}
				if j, ok := js[m.Name]; !ok || j.Unit != m.Unit {
					t.Errorf("%s: JSON %+v, want unit %q", m.Name, j, m.Unit)
				}
			}
			// The modules' allocations sum to the untraced run's.
			var sum float64
			for _, m := range []string{"sim", "fabric", "lci", "lcice", "mpi", "mpice", "parsec", "taskpool", "other"} {
				sum += js[m+".allocs_per_task"].Value
			}
			var untraced, tasks float64
			if m := regexp.MustCompile(`\(untraced run: (\d+)\)`).FindStringSubmatch(out); m != nil {
				untraced, _ = strconv.ParseFloat(m[1], 64)
			}
			if m := regexp.MustCompile(`(?m)^run +pass .* tasks=(\d+)`).FindStringSubmatch(out); m != nil {
				tasks, _ = strconv.ParseFloat(m[1], 64)
			}
			if untraced == 0 || tasks == 0 {
				t.Fatalf("untraced allocations or tasks not printed:\n%s", out)
			}
			if want := untraced / tasks; math.Abs(sum-want) > 1e-3*want {
				t.Errorf("module allocations sum to %g per task, untraced run allocated %g", sum, want)
			}
		})
	}
}

func TestUntracedPrintsEveryEndToEndMetric(t *testing.T) {
	spec := loadSpec(t)
	w, _ := findWorkload("hicma-lci")
	r, out := toy(t, w, false, empty)
	if !r.Correct || r.Attempted < minRuns {
		t.Fatalf("untraced runs: correct=%v attempted=%d\n%s", r.Correct, r.Attempted, out)
	}
	js := lastJSON(t, out)
	if len(js) != len(spec.EndToEnd) {
		t.Errorf("result has %d metrics, BENCHMARK.json lists %d end-to-end metrics", len(js), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if v := tableValue(t, out, m.Name, m.Unit); v == "n/a" {
			t.Errorf("%s is n/a", m.Name)
		}
		if j := js[m.Name]; j.Unit != m.Unit || j.Value <= 0 {
			t.Errorf("%s: JSON %+v", m.Name, j)
		}
	}
}

func TestStoredFingerprintIsEnforced(t *testing.T) {
	w, _ := findWorkload("hicma-lci")
	r, _ := toy(t, w, false, empty)
	if !r.Correct {
		t.Fatal("toy run failed")
	}
	// Record the toy result as the reference, then corrupt it.
	b := &Bench{W: w, Size: ToySize, Seed: 3, Seconds: 0.01, Ref: empty, Log: &bytes.Buffer{}}
	b.Exe, _ = os.Executable()
	run, err := b.pass(passRun, w)
	if err != nil || run.Err != "" {
		t.Fatal(err, run.Err)
	}
	ref := &Reference{DefaultSeed: 3, Fingerprints: map[string]map[string]Fingerprint{w.Name: {"3": run.FP}}}
	if r, out := toy(t, w, false, ref); !r.Correct {
		t.Fatalf("run rejected against its own fingerprint:\n%s", out)
	}
	bad := run.FP
	bad.MakespanPS++
	ref.Fingerprints[w.Name]["3"] = bad
	r, out := toy(t, w, false, ref)
	if r.Correct || r.Failed != r.Attempted || r.Attempted == 0 {
		t.Fatalf("wrong stored fingerprint: correct=%v failed=%d/%d\n%s", r.Correct, r.Failed, r.Attempted, out)
	}
	if !strings.Contains(out, "failed_frac=1\n") {
		t.Errorf("failed_frac not 1:\n%s", out)
	}
}

func TestReferenceCoversEveryWorkload(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.Name)
		}
		for _, seed := range []uint64{ref.DefaultSeed, ref.HeldOutSeed} {
			if _, ok := ref.lookup(w.Name, seed); !ok {
				t.Errorf("no stored fingerprint for %s seed %d", w.Name, seed)
			}
		}
		if w.SerialTwin != "" {
			for _, seed := range []uint64{ref.DefaultSeed, ref.HeldOutSeed} {
				a, _ := ref.lookup(w.Name, seed)
				b, _ := ref.lookup(w.SerialTwin, seed)
				if a != b {
					t.Errorf("%s seed %d: stored %v, serial twin %v", w.Name, seed, a, b)
				}
			}
		}
	}
}

func TestModuleOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"amtlci/internal/sim.(*Engine).Run", "/x/internal/sim/engine.go", "sim"},
		{"amtlci/internal/core/lcice.(*Engine).Put.func1", "/x/internal/core/lcice/lcice.go", "lcice"},
		{"amtlci/internal/core/mpice.New", "/x/internal/core/mpice/mpice.go", "mpice"},
		{"amtlci/internal/parsec.(*node).submit", "/x/internal/parsec/node.go", "parsec"},
		{"amtlci/internal/parsec.(*GraphPool).Successors", "/x/internal/parsec/graphpool.go", "taskpool"},
		{"amtlci/internal/hicma.(*Pool).Execute", "/x/internal/hicma/hicma.go", "taskpool"},
		{"amtlci/internal/cholesky.(*Pool).Successors", "/x/internal/cholesky/cholesky.go", "taskpool"},
		{"amtlci/internal/core.PutHeader.Marshal", "/x/internal/core/engine.go", ""},
		{"amtlci/internal/metrics.(*Counter).Inc", "/x/internal/metrics/metrics.go", ""},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", ""},
	} {
		if got := moduleOf(c.fn, c.file); got != c.want {
			t.Errorf("moduleOf(%s) = %q, want %q", c.fn, got, c.want)
		}
	}
}

func TestEveryLayerHasAPrediction(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range loadSpec(t).PerLayer {
		if l, _, _ := strings.Cut(m.Name, "."); ref.Predictions[l] == "" {
			t.Errorf("no prediction for layer %q", l)
		}
	}
}
