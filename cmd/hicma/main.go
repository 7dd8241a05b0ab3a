// Command hicma regenerates the HiCMA TLR Cholesky experiments of Section
// 6.4: tile scaling (Figures 4a/4b), communication multithreading (§6.4.3),
// strong scaling (Figures 5a/5b), and the best-tile table (Table 2).
//
// Usage:
//
//	hicma -sweep tile  [-nodes N] [-mt] [-latency]      Fig 4a/4b
//	hicma -sweep nodes                                   Fig 5a/5b + Table 2
//	hicma -nb NB -nodes N [-mt]                          one configuration
//
// Common flags: -scale F shrinks the N=360,000 problem, -runs N sets the
// measurement protocol (mean of 5 in the paper), -syncclocks enables the
// §6.1.3 clock-synchronization epoch over skewed rank clocks, -steal turns
// on inter-rank work stealing, -j N runs N sweep points in parallel (0 =
// all CPUs) with output identical to -j 1, -shards N runs each point's
// simulator on N shards (multi-core inside one simulation; results are
// bit-identical to -shards 1).
//
// The sweeps drive the same spec codepath as the simd experiment service
// (internal/expd): the flags build a canonical spec, the spec expands to
// content-addressed points, and -cache DIR shares simd's on-disk result
// cache so a sweep the service already ran (or a re-run of this command)
// completes without re-simulating.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"amtlci/internal/bench"
	"amtlci/internal/expd"
)

func main() {
	sweep := flag.String("sweep", "", `"tile" (Fig 4), "nodes" (Fig 5 + Table 2), or empty for one run`)
	nodes := flag.Int("nodes", 16, "node count for single runs and the tile sweep")
	nb := flag.Int("nb", 2400, "tile size for single runs")
	mt := flag.Bool("mt", false, "enable communication multithreading for ACTIVATE messages")
	latency := flag.Bool("latency", false, "report end-to-end latency columns (Fig 4b/5b)")
	scale := flag.Float64("scale", 1.0, "problem-size scale factor in (0,1]; 1 = the paper's N=360,000")
	runs := flag.Int("runs", 5, "executions per configuration (paper: mean of five)")
	syncClocks := flag.Bool("syncclocks", false, "synchronize skewed rank clocks before measuring (§6.1.3)")
	steal := flag.Bool("steal", false, "enable inter-rank work stealing (idle ranks pull ready tasks from loaded peers)")
	shards := flag.Int("shards", 1, "simulation shards (>1 runs the simulator on that many cores; results are identical)")
	j := flag.Int("j", 1, "parallel sweep workers (0 = one per CPU); output is identical for every value")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (share simd's state/cache to reuse its points)")
	flag.Parse()

	var cache *expd.Cache
	if *cacheDir != "" {
		var err error
		if cache, err = expd.OpenCache(*cacheDir); err != nil {
			log.Fatalf("hicma: %v", err)
		}
	}

	// eval expands a spec built from the flags and evaluates its points,
	// consulting the shared cache when -cache is set.
	eval := func(s expd.Spec) (expd.Spec, []expd.PointResult) {
		canon, _, results, err := expd.Evaluate(context.Background(), *j, s, cache)
		if err != nil {
			log.Fatalf("hicma: %v", err)
		}
		return canon, results
	}

	base := expd.Spec{Scale: *scale, SyncClocks: *syncClocks, Steal: *steal, Runs: *runs, Shards: *shards}

	switch *sweep {
	case "tile":
		s := base
		s.Kind = expd.KindTile
		s.Nodes = *nodes
		s.MT = *mt
		canon, results := eval(s)
		fmt.Printf("problem: N=%d (scale %.2f), tiles %v\n\n", canon.N, *scale, canon.Tiles)

		// Points are ordered backend (LCI, MPI) > mt (off, on) > tile.
		mts := 1
		if *mt {
			mts = 2
		}
		nt := len(canon.Tiles)
		at := func(backend, mtIdx, tile int) bench.HiCMAResult {
			return *results[(backend*mts+mtIdx)*nt+tile].HiCMA
		}
		title := fmt.Sprintf("TLR Cholesky tile scaling, %d nodes (Fig 4a: seconds)", *nodes)
		cols := []string{"tile", "LCI", "Open MPI"}
		if *mt {
			cols = append(cols, "LCI (MT)", "Open MPI (MT)")
		}
		tts := bench.NewTable(title, cols...)
		var lat *bench.Table
		if *latency {
			lat = bench.NewTable(fmt.Sprintf("End-to-end latency, %d nodes (Fig 4b: ms)", *nodes), cols...)
		}
		for ti, t := range canon.Tiles {
			lci, mpi := at(0, 0, ti), at(1, 0, ti)
			row := []string{fmt.Sprint(t), f2(lci.TimeToSolution), f2(mpi.TimeToSolution)}
			latRow := []string{fmt.Sprint(t), f2(lci.E2ELatencyMS), f2(mpi.E2ELatencyMS)}
			if *mt {
				lciMT, mpiMT := at(0, 1, ti), at(1, 1, ti)
				row = append(row, f2(lciMT.TimeToSolution), f2(mpiMT.TimeToSolution))
				latRow = append(latRow, f2(lciMT.E2ELatencyMS), f2(mpiMT.E2ELatencyMS))
			}
			tts.AddRow(row...)
			if lat != nil {
				lat.AddRow(latRow...)
			}
		}
		tts.Write(os.Stdout)
		if lat != nil {
			lat.Write(os.Stdout)
		}

	case "nodes":
		s := base
		s.Kind = expd.KindNodes
		canon, results := eval(s)
		fmt.Printf("problem: N=%d (scale %.2f), tiles %v\n\n", canon.N, *scale, canon.Tiles)
		points, err := expd.StrongScalingFrom(canon, results)
		if err != nil {
			log.Fatalf("hicma: %v", err)
		}
		tts := bench.NewTable("TLR Cholesky strong scaling (Fig 5a: seconds)",
			"nodes", "LCI", "Open MPI", "Open MPI (best)")
		lat := bench.NewTable("Strong-scaling end-to-end latency (Fig 5b: ms)",
			"nodes", "LCI", "Open MPI", "Open MPI (best)")
		tbl2 := bench.NewTable("Tile size with lowest time-to-solution (Table 2)",
			"nodes", "Open MPI", "LCI")
		for _, p := range points {
			tts.AddRow(fmt.Sprint(p.Nodes), f2(p.LCI.TimeToSolution),
				f2(p.MPIAtLCI.TimeToSolution), f2(p.MPIBest.TimeToSolution))
			lat.AddRow(fmt.Sprint(p.Nodes), f2(p.LCI.E2ELatencyMS),
				f2(p.MPIAtLCI.E2ELatencyMS), f2(p.MPIBest.E2ELatencyMS))
			tbl2.AddRow(fmt.Sprint(p.Nodes), fmt.Sprint(p.MPIBestTile), fmt.Sprint(p.LCITile))
		}
		tts.Write(os.Stdout)
		lat.Write(os.Stdout)
		tbl2.Write(os.Stdout)

	default:
		s := base
		s.Kind = expd.KindTile
		s.Nodes = *nodes
		s.MT = *mt
		s.Tiles = []int{*nb}
		canon, results := eval(s)
		// Points: LCI then MPI (MT variants after, when -mt is set — the
		// single-run report uses the plain pair either way).
		nmt := 1
		if *mt {
			nmt = 2
		}
		lci, mpi := *results[0].HiCMA, *results[nmt].HiCMA
		if *mt {
			lci, mpi = *results[1].HiCMA, *results[nmt+1].HiCMA
		}
		fmt.Printf("problem: N=%d (scale %.2f)\n", canon.N, *scale)
		fmt.Printf("nb=%d nodes=%d mt=%v\n", *nb, *nodes, *mt)
		fmt.Printf("  LCI:      %.3f s, e2e %.2f ms, hop %.2f ms (%d tasks, avg rank %.2f)\n",
			lci.TimeToSolution, lci.E2ELatencyMS, lci.HopLatencyMS, lci.Tasks, lci.AvgRank)
		fmt.Printf("  Open MPI: %.3f s, e2e %.2f ms, hop %.2f ms\n",
			mpi.TimeToSolution, mpi.E2ELatencyMS, mpi.HopLatencyMS)
		fmt.Printf("  speedup:  %.3f\n", mpi.TimeToSolution/lci.TimeToSolution)
	}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
