// Command perfbench is the repository's benchmark. It runs one named
// workload (or all of them) through the whole simulated stack — sim ->
// fabric -> lci/mpi -> lcice/mpice -> parsec -> taskpool — and reports the
// host cost of simulating it.
//
// With -trace 0 it repeats untraced runs for -seconds seconds and prints
// the end-to-end metrics (medians over the runs). With -trace 1 it makes
// one traced pass per kind instead and prints the per-layer metrics. Every
// run's simulated result is checked against the fingerprint stored in
// reference.json for the default and held-out seeds, and against the other
// runs (and the serial twin of a sharded workload) for any other seed.
//
// The last line of standard output is one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// Usage, from the repository root (run.sh builds the binary into
// .bench_build and passes its arguments on):
//
//	bash perfbench/run.sh -workload hicma-lci -seed 3 -seconds 15 -trace 0
//	bash perfbench/run.sh -workload all -trace 1
//
// perfbench is a module of its own (it imports the repository's internal
// packages through a replace directive), so the repository's go test ./...
// does not reach it; its toy-size tests run with
//
//	cd perfbench && go test .
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wname := fs.String("workload", "hicma-lci", `workload name, or "all"`)
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	seed := fs.Uint64("seed", ref.DefaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "measuring time per workload (untraced)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var ws []Workload
	if *wname == "all" {
		ws = Workloads
	} else {
		w, err := findWorkload(*wname)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		ws = []Workload{w}
	}
	for _, w := range ws {
		b := &Bench{W: w, Size: FullSize, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Ref: ref, Exe: exe, Log: out}
		r := b.Measure()
		if err := r.write(out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	return 0
}
