// Command benchrecord measures the simulator's performance envelope and
// writes it to a flat JSON file (default BENCH_sim.json): nanoseconds and
// allocations per event on the calendar-queue engine and on the heap-backed
// reference engine it replaced, Proc dispatch and fabric delivery costs, the
// per-message costs of the LCI communication path above the fabric (lci
// eager and Direct messages, lcice active messages and puts), and the
// wall-clock seconds of a reference HiCMA strong-scaling point.
//
// The file is one "key": value pair per line so scripts/benchcmp.sh can diff
// two records with awk and fail CI on a >10% ns/event regression:
//
//	go run ./cmd/benchrecord -o BENCH_sim.json
//	scripts/benchcmp.sh BENCH_sim.json BENCH_new.json
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"amtlci/internal/bench"
	"amtlci/internal/bench/micro"
	"amtlci/internal/core/stack"
	"amtlci/internal/stats"
)

func main() {
	out := flag.String("o", "BENCH_sim.json", "output file")
	quick := flag.Bool("quick", false, "smaller HiCMA reference point (CI smoke)")
	flag.Parse()

	type entry struct {
		key string
		val float64
	}
	var entries []entry
	add := func(key string, val float64) { entries = append(entries, entry{key, val}) }

	run := func(name string, f func(*testing.B)) testing.BenchmarkResult {
		r := testing.Benchmark(f)
		fmt.Printf("%-24s %12.2f ns/op %8.2f allocs/op\n",
			name, float64(r.T.Nanoseconds())/float64(r.N), float64(r.AllocsPerOp()))
		return r
	}
	nsPerOp := func(r testing.BenchmarkResult) float64 {
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}

	eng := run("engine", micro.EngineScheduleFire)
	ref := run("refengine(heap)", micro.RefEngineScheduleFire)
	cancel := run("engine-cancel", micro.EngineScheduleCancel)
	proc := run("proc", micro.ProcSubmitDispatch)
	ctl := run("fabric-ctl", micro.FabricDeliveryCtl)
	bulk := run("fabric-bulk", micro.FabricDeliveryBulk)

	add("engine_ns_per_event", nsPerOp(eng))
	add("engine_allocs_per_event", float64(eng.AllocsPerOp()))
	add("engine_events_per_sec", 1e9/nsPerOp(eng))
	add("refengine_heap_ns_per_event", nsPerOp(ref))
	add("refengine_heap_allocs_per_event", float64(ref.AllocsPerOp()))
	add("engine_vs_heap_speedup", nsPerOp(ref)/nsPerOp(eng))
	add("engine_cancel_ns_per_op", nsPerOp(cancel))
	add("proc_ns_per_op", nsPerOp(proc))
	add("fabric_ctl_ns_per_msg", nsPerOp(ctl))
	add("fabric_ctl_allocs_per_msg", float64(ctl.AllocsPerOp()))
	add("fabric_bulk_ns_per_msg", nsPerOp(bulk))
	add("fabric_bulk_allocs_per_msg", float64(bulk.AllocsPerOp()))

	// The LCI communication path, layer by layer: lci alone (one-way
	// messages of a ping-pong), then lcice on top (one active message; one
	// put op = an eager-size plus a rendezvous-size put). All four must
	// stay allocation-free in steady state.
	lciEager := run("lci-eager", micro.LCIEagerRoundTrip)
	lciDirect := run("lci-direct", micro.LCIDirectRoundTrip)
	am := run("lcice-am", micro.LCICEActiveMessage)
	put := run("lcice-put", micro.LCICEPut)
	add("lci_eager_ns_per_msg", nsPerOp(lciEager))
	add("lci_eager_allocs_per_msg", float64(lciEager.AllocsPerOp()))
	add("lci_direct_ns_per_msg", nsPerOp(lciDirect))
	add("lci_direct_allocs_per_msg", float64(lciDirect.AllocsPerOp()))
	add("lcice_am_ns_per_op", nsPerOp(am))
	add("lcice_am_allocs_per_op", float64(am.AllocsPerOp()))
	add("lcice_put_ns_per_op", nsPerOp(put))
	add("lcice_put_allocs_per_op", float64(put.AllocsPerOp()))

	// Sharded-domain series: the same synthetic event mix on sim.Parallel at
	// 1, 4, and 8 shards. These are wall-clock numbers, so they only show a
	// speedup when the scheduler actually grants the process that many
	// execution contexts; sim_cores records GOMAXPROCS (not the machine's
	// CPU count — a container or taskset can hand this process far fewer
	// cores than the host owns), making a 1-core record (where the sharded
	// lines measure barrier overhead alone) self-describing. Speedup keys
	// recorded with fewer cores than shards get an _invalid_undersubscribed
	// suffix: the ratio is still written for inspection, but comparison
	// tooling must never treat it as a performance claim.
	cores := runtime.GOMAXPROCS(0)
	add("sim_cores", float64(cores))
	speedupKey := func(key string, shards int) string {
		if cores < shards {
			return key + "_invalid_undersubscribed"
		}
		return key
	}
	ps1 := run("psim-shards1", micro.ParallelDomainThroughput(1))
	ps4 := run("psim-shards4", micro.ParallelDomainThroughput(4))
	ps8 := run("psim-shards8", micro.ParallelDomainThroughput(8))
	add("psim_ns_per_event_shards1", nsPerOp(ps1))
	add("psim_ns_per_event_shards4", nsPerOp(ps4))
	add("psim_ns_per_event_shards8", nsPerOp(ps8))
	add("psim_events_per_sec_shards1", 1e9/nsPerOp(ps1))
	add("psim_events_per_sec_shards4", 1e9/nsPerOp(ps4))
	add("psim_events_per_sec_shards8", 1e9/nsPerOp(ps8))
	add(speedupKey("psim_shard8_speedup", 8), nsPerOp(ps1)/nsPerOp(ps8))

	// Round-protocol overhead: one event per shard per window, so ns/round
	// isolates the nextTime scan + window computation + barrier, and
	// allocs/round pins the hot path's zero-allocation invariant. The
	// allocation rate is floored to its steady-state value: Run's one-time
	// setup (worker goroutines, parker channels) leaves a sub-1 fractional
	// residue that shrinks with iteration count, and recording it raw would
	// trip benchcmp's exact allocation gate on noise between two healthy
	// records. A genuine per-round allocation still shows as >= 1 (and the
	// stricter per-event zero-alloc test in internal/bench/micro fails
	// first).
	for _, shards := range []int{2, 4, 8} {
		r := run(fmt.Sprintf("psim-round-shards%d", shards), micro.ParallelRoundOverhead(shards))
		rpo := r.Extra["rounds/op"]
		if rpo <= 0 {
			fmt.Fprintf(os.Stderr, "benchrecord: psim-round-shards%d reported no rounds\n", shards)
			os.Exit(1)
		}
		add(fmt.Sprintf("psim_round_ns_per_round_shards%d", shards), nsPerOp(r)/rpo)
		add(fmt.Sprintf("psim_round_allocs_per_round_shards%d", shards),
			math.Floor(float64(r.MemAllocs)/(rpo*float64(r.N))))
	}

	// Wall-clock reference: one HiCMA strong-scaling point, the macro
	// workload every micro number above feeds into. Virtual seconds pin
	// model calibration; wall seconds pin simulator throughput.
	n, nb := 90000, 1200
	if *quick {
		n, nb = 36000, 1200
	}
	o := bench.DefaultHiCMAOpts(stack.LCI, nb, 4)
	o.N = n
	o.Runs = stats.Methodology{Runs: 1, Discard: 0}
	start := time.Now()
	r := bench.HiCMA(o)
	wall := time.Since(start).Seconds()
	fmt.Printf("%-24s %12.3f s wall %11.3f s virtual (N=%d nb=%d, 4 nodes)\n",
		"hicma-ref", wall, r.TimeToSolution, n, nb)
	add("hicma_ref_wall_seconds", wall)
	add("hicma_ref_virtual_seconds", r.TimeToSolution)
	add("hicma_ref_n", float64(n))

	// Large-node shard-speedup point: the biggest strong-scaling
	// configuration, simulated serially and on 8 shards. The two runs model
	// the identical system (the differential tests pin bit-equality), so the
	// wall-clock ratio isolates what sharding buys; interpret it against
	// sim_cores above — ≥8 cores is required for the sharded run to actually
	// go faster.
	nodes, sn := 1024, 115200
	if *quick {
		nodes, sn = 256, 28800
	}
	so := bench.DefaultHiCMAOpts(stack.LCI, nb, nodes)
	so.N = sn
	so.Runs = stats.Methodology{Runs: 1, Discard: 0}
	start = time.Now()
	sr := bench.HiCMA(so)
	serialWall := time.Since(start).Seconds()
	so.Shards = 8
	start = time.Now()
	pr := bench.HiCMA(so)
	shardWall := time.Since(start).Seconds()
	if sr.TimeToSolution != pr.TimeToSolution {
		fmt.Fprintf(os.Stderr, "benchrecord: sharded run diverged from serial (%v vs %v)\n",
			pr.TimeToSolution, sr.TimeToSolution)
		os.Exit(1)
	}
	fmt.Printf("%-24s %12.3f s serial %10.3f s shards=8 (N=%d nb=%d, %d nodes)\n",
		"hicma-scale", serialWall, shardWall, sn, nb, nodes)
	add("hicma_scale_nodes", float64(nodes))
	add("hicma_scale_n", float64(sn))
	add("hicma_scale_wall_seconds_serial", serialWall)
	add("hicma_scale_wall_seconds_shards8", shardWall)
	add(speedupKey("hicma_scale_shard_speedup", 8), serialWall/shardWall)

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrecord: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, "{")
	for i, e := range entries {
		comma := ","
		if i == len(entries)-1 {
			comma = ""
		}
		fmt.Fprintf(f, "  %q: %.4f%s\n", e.key, e.val, comma)
	}
	fmt.Fprintln(f, "}")
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "benchrecord: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
