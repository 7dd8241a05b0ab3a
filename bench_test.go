// Package amtlci's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (Section 6) at test-friendly scale, plus ablations
// of the design choices called out in DESIGN.md. Each benchmark prints the
// figure's series through testing.B custom metrics; cmd/experiments produces
// the full-scale tables.
//
//	go test -bench=. -benchmem
package amtlci

import (
	"context"
	"fmt"
	"testing"

	"amtlci/internal/bench"
	"amtlci/internal/core/stack"
	"amtlci/internal/expd"
	"amtlci/internal/hicma"
	"amtlci/internal/netpipe"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
	"amtlci/internal/stats"
)

var quick = stats.Methodology{Runs: 2, Discard: 1}

// benchSizes is a representative subset of the granularity sweep, keeping
// bench runtime reasonable; cmd/experiments runs the full axis.
var benchSizes = []int64{32 << 10, 128 << 10, 512 << 10, 2 << 20}

// BenchmarkTable1Config reports the simulated platform parameters (the
// Table 1 analogue): NetPIPE peak bandwidth and small-message latency.
func BenchmarkTable1Config(b *testing.B) {
	cfg := netpipe.DefaultConfig()
	var peak, lat float64
	for i := 0; i < b.N; i++ {
		peak = netpipe.Bandwidth(cfg, 8<<20)
		lat = netpipe.Latency(cfg)
	}
	b.ReportMetric(peak, "Gbps-peak")
	b.ReportMetric(lat, "µs-latency")
}

// BenchmarkFig2aPingPongOneStream regenerates Figure 2a: one-stream
// bandwidth per granularity for LCI, Open MPI, and NetPIPE.
func BenchmarkFig2aPingPongOneStream(b *testing.B) {
	for _, size := range benchSizes {
		size := size
		b.Run(bench.Bytes(size), func(b *testing.B) {
			var lci, mpi, np float64
			for i := 0; i < b.N; i++ {
				for _, be := range []stack.Backend{stack.LCI, stack.MPI} {
					o := bench.DefaultPingPongOpts(be, size)
					o.Runs = quick
					r := bench.PingPong(o)
					if be == stack.LCI {
						lci = r.Gbps
					} else {
						mpi = r.Gbps
					}
				}
				np = netpipe.Bandwidth(netpipe.DefaultConfig(), size)
			}
			b.ReportMetric(lci, "Gbps-LCI")
			b.ReportMetric(mpi, "Gbps-MPI")
			b.ReportMetric(np, "Gbps-NetPIPE")
		})
	}
}

// BenchmarkFig2bPingPongTwoStreams regenerates Figure 2b: two-stream
// bandwidth with and without the inter-iteration synchronization.
func BenchmarkFig2bPingPongTwoStreams(b *testing.B) {
	for _, size := range benchSizes {
		size := size
		b.Run(bench.Bytes(size), func(b *testing.B) {
			var synced, nosync float64
			for i := 0; i < b.N; i++ {
				o := bench.DefaultPingPongOpts(stack.LCI, size)
				o.Streams = 2
				o.Runs = quick
				synced = bench.PingPong(o).Gbps
				o.Sync = false
				nosync = bench.PingPong(o).Gbps
			}
			b.ReportMetric(synced, "Gbps-sync")
			b.ReportMetric(nosync, "Gbps-nosync")
		})
	}
}

// BenchmarkFig3Overlap regenerates Figure 3: GFLOP/s with GEMM-like task
// intensity, against the Roofline and No-Overlap models.
func BenchmarkFig3Overlap(b *testing.B) {
	for _, size := range []int64{64 << 10, 512 << 10, 4 << 20} {
		size := size
		b.Run(bench.Bytes(size), func(b *testing.B) {
			var lci, mpi, roof float64
			for i := 0; i < b.N; i++ {
				for _, be := range []stack.Backend{stack.LCI, stack.MPI} {
					o := bench.DefaultOverlapOpts(be, size)
					o.Runs = quick
					r := bench.Overlap(o)
					if be == stack.LCI {
						lci, roof = r.GFLOPS, r.Roofline
					} else {
						mpi = r.GFLOPS
					}
				}
			}
			b.ReportMetric(lci, "GFLOPS-LCI")
			b.ReportMetric(mpi, "GFLOPS-MPI")
			b.ReportMetric(roof, "GFLOPS-roofline")
		})
	}
}

// hicmaBenchOpts is the scaled HiCMA configuration for benches: a quarter of
// the paper's matrix on 4 nodes keeps each point in the seconds range.
func hicmaBenchOpts(be stack.Backend, nb int, mt bool) bench.HiCMAOpts {
	o := bench.DefaultHiCMAOpts(be, nb, 4)
	o.N = 90000
	o.MT = mt
	o.Runs = stats.Methodology{Runs: 1, Discard: 0}
	return o
}

// BenchmarkFig4aTileScaling regenerates Figure 4a at bench scale:
// time-to-solution per tile size for both backends.
func BenchmarkFig4aTileScaling(b *testing.B) {
	for _, nb := range []int{3000, 1800, 1200} {
		nb := nb
		b.Run(fmt.Sprintf("nb=%d", nb), func(b *testing.B) {
			var lci, mpi float64
			for i := 0; i < b.N; i++ {
				lci = bench.HiCMA(hicmaBenchOpts(stack.LCI, nb, false)).TimeToSolution
				mpi = bench.HiCMA(hicmaBenchOpts(stack.MPI, nb, false)).TimeToSolution
			}
			b.ReportMetric(lci, "s-LCI")
			b.ReportMetric(mpi, "s-MPI")
			b.ReportMetric(mpi/lci, "speedup-LCI/MPI")
		})
	}
}

// BenchmarkFig4bLatency regenerates Figure 4b at bench scale: end-to-end
// latency per tile size, funneled and multithreaded.
func BenchmarkFig4bLatency(b *testing.B) {
	for _, nb := range []int{3000, 1200} {
		nb := nb
		b.Run(fmt.Sprintf("nb=%d", nb), func(b *testing.B) {
			var lci, mpi, lciMT float64
			for i := 0; i < b.N; i++ {
				lci = bench.HiCMA(hicmaBenchOpts(stack.LCI, nb, false)).E2ELatencyMS
				mpi = bench.HiCMA(hicmaBenchOpts(stack.MPI, nb, false)).E2ELatencyMS
				lciMT = bench.HiCMA(hicmaBenchOpts(stack.LCI, nb, true)).E2ELatencyMS
			}
			b.ReportMetric(lci, "ms-LCI")
			b.ReportMetric(mpi, "ms-MPI")
			b.ReportMetric(lciMT, "ms-LCI-MT")
		})
	}
}

// strongScalingBench evaluates the bench-scale Figure 5 / Table 2 sweep at
// one node count through the experiment service's spec path.
func strongScalingBench(b *testing.B, nodes int) bench.StrongScalingPoint {
	tiles := []int{3000, 1800, 1200}
	n, ok := bench.ScaledProblem(0.25, tiles)
	s := expd.Spec{Kind: expd.KindNodes, N: n, NodeCounts: []int{nodes}, Tiles: ok}
	canon, _, results, err := expd.Evaluate(context.Background(), 1, s, nil)
	if err != nil {
		b.Fatal(err)
	}
	pts, err := expd.StrongScalingFrom(canon, results)
	if err != nil {
		b.Fatal(err)
	}
	return pts[0]
}

// BenchmarkFig5aStrongScaling regenerates Figure 5a at bench scale:
// time-to-solution over node counts at each backend's best tile size.
func BenchmarkFig5aStrongScaling(b *testing.B) {
	for _, nodes := range []int{2, 4, 8} {
		nodes := nodes
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			var pt bench.StrongScalingPoint
			for i := 0; i < b.N; i++ {
				pt = strongScalingBench(b, nodes)
			}
			b.ReportMetric(pt.LCI.TimeToSolution, "s-LCI")
			b.ReportMetric(pt.MPIBest.TimeToSolution, "s-MPI-best")
			b.ReportMetric(float64(pt.LCITile), "nb-LCI")
			b.ReportMetric(float64(pt.MPIBestTile), "nb-MPI")
		})
	}
}

// BenchmarkFig5bStrongScalingLatency regenerates Figure 5b at bench scale.
func BenchmarkFig5bStrongScalingLatency(b *testing.B) {
	var lci, mpi float64
	for i := 0; i < b.N; i++ {
		lci = bench.HiCMA(hicmaBenchOpts(stack.LCI, 1800, false)).E2ELatencyMS
		mpi = bench.HiCMA(hicmaBenchOpts(stack.MPI, 1800, false)).E2ELatencyMS
	}
	b.ReportMetric(lci, "ms-LCI")
	b.ReportMetric(mpi, "ms-MPI")
}

// BenchmarkTable2BestTile regenerates Table 2 at bench scale: the
// best-performing tile size per backend.
func BenchmarkTable2BestTile(b *testing.B) {
	var lciTile, mpiTile int
	for i := 0; i < b.N; i++ {
		pt := strongScalingBench(b, 4)
		lciTile, mpiTile = pt.LCITile, pt.MPIBestTile
	}
	b.ReportMetric(float64(lciTile), "nb-LCI")
	b.ReportMetric(float64(mpiTile), "nb-MPI")
}

// ---- Ablations (DESIGN.md §5) ----

// runHiCMAStack runs one scaled HiCMA execution with custom stack options.
func runHiCMAStack(o stack.Options, workers, fetchCap int, mt bool, nb int) float64 {
	s := stack.Build(o)
	pool := hicma.NewVirtual(hicma.DefaultParams(90000, nb), o.Ranks)
	cfg := parsec.DefaultConfig(workers)
	cfg.FetchCap = fetchCap
	cfg.MTActivate = mt
	rt := parsec.New(s.Eng, s.Engines, pool, cfg)
	d, err := rt.Run()
	if err != nil {
		panic(err)
	}
	return d.Seconds()
}

// BenchmarkAblationMPITransferCap sweeps the MPI backend's 30-concurrent-
// transfer cap (§4.2.2).
func BenchmarkAblationMPITransferCap(b *testing.B) {
	for _, cap := range []int{8, 30, 120} {
		cap := cap
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			var tts float64
			for i := 0; i < b.N; i++ {
				o := stack.DefaultOptions(stack.MPI, 4)
				o.MPICE.MaxTransfers = cap
				tts = runHiCMAStack(o, 32, 64, false, 1200)
			}
			b.ReportMetric(tts, "s-tts")
		})
	}
}

// BenchmarkAblationPersistentRecvs sweeps the persistent receives per AM tag
// (five in §4.2.1).
func BenchmarkAblationPersistentRecvs(b *testing.B) {
	for _, n := range []int{1, 5, 20} {
		n := n
		b.Run(fmt.Sprintf("recvs=%d", n), func(b *testing.B) {
			var tts float64
			for i := 0; i < b.N; i++ {
				o := stack.DefaultOptions(stack.MPI, 4)
				o.MPICE.PersistentPerTag = n
				tts = runHiCMAStack(o, 32, 64, false, 1200)
			}
			b.ReportMetric(tts, "s-tts")
		})
	}
}

// BenchmarkAblationLCIInlineProgress removes the paper's key structural
// change: LCI progress runs on the communication thread instead of a
// dedicated progress thread (§5.3.1).
func BenchmarkAblationLCIInlineProgress(b *testing.B) {
	for _, inline := range []bool{false, true} {
		inline := inline
		name := "dedicated"
		if inline {
			name = "inline"
		}
		b.Run(name, func(b *testing.B) {
			var tts float64
			for i := 0; i < b.N; i++ {
				o := stack.DefaultOptions(stack.LCI, 4)
				o.LCICE.InlineProgress = inline
				tts = runHiCMAStack(o, 32, 64, false, 1200)
			}
			b.ReportMetric(tts, "s-tts")
		})
	}
}

// BenchmarkAblationEagerPutInHandshake toggles the §5.3.3 optimization that
// carries small put payloads inside the handshake message.
func BenchmarkAblationEagerPutInHandshake(b *testing.B) {
	for _, eager := range []int64{0, 8 << 10} {
		eager := eager
		name := "off"
		if eager > 0 {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var tts float64
			for i := 0; i < b.N; i++ {
				o := stack.DefaultOptions(stack.LCI, 4)
				o.LCICE.EagerPutMax = eager
				tts = runHiCMAStack(o, 32, 64, false, 1200)
			}
			b.ReportMetric(tts, "s-tts")
		})
	}
}

// BenchmarkAblationCommThreadPinning contrasts pinned communication threads
// with "floating" ones that wake more slowly (the §6.1.2 ±25% latency
// observation is modeled as wake latency).
func BenchmarkAblationCommThreadPinning(b *testing.B) {
	for _, floating := range []bool{false, true} {
		floating := floating
		name := "pinned"
		if floating {
			name = "floating"
		}
		b.Run(name, func(b *testing.B) {
			var tts float64
			for i := 0; i < b.N; i++ {
				o := stack.DefaultOptions(stack.LCI, 4)
				if floating {
					o.LCICE.CommWake = 2 * sim.Microsecond
					o.LCICE.ProgWake = 2 * sim.Microsecond
				}
				tts = runHiCMAStack(o, 32, 64, false, 1200)
			}
			b.ReportMetric(tts, "s-tts")
		})
	}
}

// BenchmarkAblationActivateMultithreading contrasts funneled and
// multithreaded ACTIVATE paths on both backends (§6.4.3).
func BenchmarkAblationActivateMultithreading(b *testing.B) {
	for _, be := range []stack.Backend{stack.LCI, stack.MPI} {
		for _, mt := range []bool{false, true} {
			be, mt := be, mt
			name := fmt.Sprintf("%v/funneled", be)
			if mt {
				name = fmt.Sprintf("%v/mt", be)
			}
			b.Run(name, func(b *testing.B) {
				var tts float64
				for i := 0; i < b.N; i++ {
					o := stack.DefaultOptions(be, 4)
					tts = runHiCMAStack(o, 32, 64, mt, 1200)
				}
				b.ReportMetric(tts, "s-tts")
			})
		}
	}
}
