// Command collbench sweeps the collective-communication subsystem
// (internal/coll): operation x algorithm x payload size x rank count x
// backend, in virtual time. It is the calibration tool for the selector
// crossovers in coll.DefaultTune — every concrete algorithm is measured
// alongside the selector's pick, so a mistuned threshold is visible as an
// "auto" row slower than the best concrete row.
//
// Usage:
//
//	collbench [-ranks 4,16,64] [-iters N] [-j N] [-csv] [-check] [-quick]
//
// With -csv the sweep is emitted as one CSV table on stdout (deterministic
// for a fixed seed); otherwise as one aligned text table. -check exits
// nonzero if the selector picked a slower algorithm at a size extreme.
//
// The flags build an expd coll spec, so the points are evaluated by the
// same code as the simd experiment service's coll sweeps.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"amtlci/internal/bench"
	"amtlci/internal/core/stack"
	"amtlci/internal/expd"
	"amtlci/internal/sim"
)

func parseRanks(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 2 {
			fmt.Fprintf(os.Stderr, "collbench: bad rank count %q\n", f)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

// duration converts a row's microseconds back to the simulator's duration
// for the miss notes.
func duration(us float64) sim.Duration {
	return sim.Duration(math.Round(us * float64(sim.Microsecond)))
}

func main() {
	ranksFlag := flag.String("ranks", "4,16,64", "comma-separated rank counts")
	iters := flag.Int("iters", 3, "back-to-back operations per measurement")
	csv := flag.Bool("csv", false, "emit one CSV table on stdout")
	check := flag.Bool("check", false, "exit nonzero if the selector picked a slower algorithm at a size extreme")
	quick := flag.Bool("quick", false, "fast sweep: 2 rank counts, every other size plus the largest")
	j := flag.Int("j", 1, "parallel sweep workers (0 = one per CPU); output is identical for every value")
	flag.Parse()

	spec := expd.Spec{Kind: expd.KindColl, Ranks: parseRanks(*ranksFlag), Iters: *iters}
	if *quick {
		// Keep both size extremes: -check holds the selector to them.
		spec.Ranks = []int{4, 16}
		sizes := bench.CollSizes()
		for i, s := range sizes {
			if i%2 == 0 || i == len(sizes)-1 {
				spec.Sizes = append(spec.Sizes, expd.Size(s))
			}
		}
	}
	canon, pts, results, err := expd.Evaluate(context.Background(), *j, spec, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "collbench: %v\n", err)
		os.Exit(1)
	}

	tbl := bench.NewTable("collectives sweep — mean completion time",
		"backend", "op", "ranks", "bytes", "algorithm", "picked", "time_us")
	smallest, largest := int64(canon.Sizes[0]), int64(canon.Sizes[len(canon.Sizes)-1])
	misses, extremeMisses := 0, 0
	for i, p := range pts {
		b, _ := stack.ParseBackend(p.Backend) // canonical spelling, cannot fail
		// Rows are the concrete algorithms in sweep order, then "auto".
		rows := results[i].Coll
		concrete, auto := rows[:len(rows)-1], rows[len(rows)-1]
		for _, r := range rows {
			tbl.AddRow(b.String(), p.Op, strconv.Itoa(p.Ranks), strconv.FormatInt(p.Size, 10),
				r.Algo, r.Picked, fmt.Sprintf("%.3f", r.TimeUS))
		}

		best, picked := concrete[0], concrete[0]
		for _, r := range concrete {
			if r.TimeUS < best.TimeUS {
				best = r
			}
			if r.Algo == auto.Picked {
				picked = r
			}
		}
		if auto.Picked == best.Algo {
			continue
		}
		misses++
		// The selector must be right at the latency (smallest) and
		// bandwidth (largest) extremes; mid-range crossover points within
		// measurement noise of each other are informational.
		severity := "note:"
		if p.Op != "barrier" && (p.Size == smallest || p.Size == largest) {
			severity = "MISS:"
			extremeMisses++
		}
		if *check {
			fmt.Fprintf(os.Stderr,
				"collbench: %s selector picked %s for %v/%s n=%d size=%d; %s is faster (%v vs %v)\n",
				severity, auto.Picked, b, p.Op, p.Ranks, p.Size, best.Algo,
				duration(best.TimeUS), duration(picked.TimeUS))
		}
	}

	if *csv {
		tbl.CSV(os.Stdout)
	} else {
		tbl.Write(os.Stdout)
	}
	if *check {
		fmt.Fprintf(os.Stderr,
			"collbench: selector matched the fastest algorithm everywhere but %d points (%d at size extremes)\n",
			misses, extremeMisses)
		if extremeMisses > 0 {
			os.Exit(1)
		}
	}
}
