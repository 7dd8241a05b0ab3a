package expd

import (
	"context"
	"strings"
	"testing"

	"amtlci/internal/bench"
	"amtlci/internal/core/stack"
	"amtlci/internal/stats"
)

// evalSpec canonicalizes s and evaluates it on `workers` sweep workers.
func evalSpec(t *testing.T, s Spec, workers int) (Spec, []Point, []PointResult) {
	t.Helper()
	canon, pts, results, err := Evaluate(context.Background(), workers, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	return canon, pts, results
}

// sweepCSV renders an evaluated sweep through AssembleTable as CSV.
func sweepCSV(t *testing.T, s Spec, pts []Point, results []PointResult) string {
	t.Helper()
	tbl, err := AssembleTable(s, pts, results)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.CSV(&sb)
	return sb.String()
}

// TestSweepDeterministicAcrossWorkerCounts is the -j determinism guarantee:
// a real HiCMA tile sweep rendered as CSV must be byte-identical at -j 1 and
// -j 8. Every experiment point builds its own engine and seeded RNGs, so
// worker scheduling must not be able to leak into results; this test (run
// under -race in verify) is what keeps that property from regressing.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := Spec{Kind: KindTile, N: 9600, Nodes: 2, Tiles: []int{1200, 2400, 4800},
		Backends: []string{"lci"}}
	render := func(workers int) string {
		canon, pts, results := evalSpec(t, spec, workers)
		return sweepCSV(t, canon, pts, results)
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("CSV differs between -j 1 and -j 8:\n--- j=1 ---\n%s--- j=8 ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "1200") {
		t.Fatalf("sweep produced no rows:\n%s", serial)
	}
}

// TestStrongScalingParallelMatchesSerial pins the flattened-grid reassembly
// in StrongScalingFrom: best-tile selection per node count must not depend
// on worker count.
func TestStrongScalingParallelMatchesSerial(t *testing.T) {
	spec := Spec{Kind: KindNodes, N: 9600, NodeCounts: []int{2, 4}, Tiles: []int{1200, 2400}}
	series := func(workers int) []bench.StrongScalingPoint {
		canon, _, results := evalSpec(t, spec, workers)
		pts, err := StrongScalingFrom(canon, results)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	serial := series(1)
	parallel := series(8)
	if len(serial) != len(parallel) {
		t.Fatalf("point counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("point %d differs:\nserial:   %+v\nparallel: %+v", i, serial[i], parallel[i])
		}
	}
}

// TestTileScalingCSVIdenticalSharded pins the experiment pipeline end to
// end: the rendered sweep CSV — what cmd/hicma and the simd cache
// ultimately serve — must be byte-identical whether the points simulate
// serially or on 4 shards.
func TestTileScalingCSVIdenticalSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second differential")
	}
	render := func(shards int) string {
		spec := Spec{Kind: KindTile, N: 9600, Nodes: 4, Tiles: []int{1200, 2400},
			Backends: []string{"lci"}, Shards: shards}
		canon, pts, results := evalSpec(t, spec, 1)
		return sweepCSV(t, canon, pts, results)
	}
	serial := render(1)
	sharded := render(4)
	if serial != sharded {
		t.Fatalf("CSV differs between shards=1 and shards=4:\n--- serial ---\n%s--- sharded ---\n%s",
			serial, sharded)
	}
	if !strings.Contains(serial, "1200") {
		t.Fatalf("sweep produced no rows:\n%s", serial)
	}
}

// TestEvalPointMatchesDirectHiCMA pins that routing a sweep through expd
// moves no number: every tile-sweep point, multithreaded or not, evaluates
// to exactly what a direct bench.HiCMA call with the same configuration
// returns.
func TestEvalPointMatchesDirectHiCMA(t *testing.T) {
	canon, err := Spec{Kind: KindTile, N: 9600, Nodes: 2, Tiles: []int{1200, 2400}, MT: true}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	pts := canon.Points()
	if len(pts) != 8 {
		t.Fatalf("spec expands to %d points, want 8 (2 backends x 2 mt x 2 tiles)", len(pts))
	}
	for _, p := range pts {
		got, err := EvalPoint(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := stack.ParseBackend(p.Backend)
		if err != nil {
			t.Fatal(err)
		}
		o := bench.DefaultHiCMAOpts(b, p.NB, p.Nodes)
		o.N = p.N
		o.MT = p.MT
		o.Runs = stats.Methodology{Runs: 1}
		if want := bench.HiCMA(o); *got.HiCMA != want {
			t.Errorf("%s nb=%d mt=%v:\nexpd:   %+v\ndirect: %+v", p.Backend, p.NB, p.MT, *got.HiCMA, want)
		}
	}
}
