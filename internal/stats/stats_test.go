package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Std = %v, want sqrt(2.5)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("empty summary N = %d", s.N)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Fatalf("bad singleton summary: %+v", s)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {-5, 10}, {105, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMethodologyDiscardsWarmup(t *testing.T) {
	// First three runs are wildly slower, as the paper observed.
	values := []float64{100, 90, 80, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	got := Microbenchmark.Collect(func(run int) float64 { return values[run] })
	if got != 10 {
		t.Fatalf("mean = %v, want 10 (warm-up not discarded?)", got)
	}
}

func TestMethodologyCollectAll(t *testing.T) {
	xs := Methodology{Runs: 3, Discard: 1}.CollectAll(func(run int) float64 { return float64(run) })
	if len(xs) != 2 || xs[0] != 1 || xs[1] != 2 {
		t.Fatalf("CollectAll = %v", xs)
	}
}

func TestMethodologyPanicsWhenNothingRetained(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for degenerate methodology")
		}
	}()
	Methodology{Runs: 3, Discard: 3}.Collect(func(int) float64 { return 0 })
}

func TestOnlineMatchesBatch(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var o Online
		for i, v := range raw {
			xs[i] = float64(v)
			o.Add(float64(v))
		}
		s := Summarize(xs)
		tol := 1e-9 * (1 + math.Abs(s.Mean))
		return o.N() == s.N &&
			math.Abs(o.Mean()-s.Mean) < tol &&
			math.Abs(o.Std()-s.Std) < 1e-6*(1+s.Std) &&
			o.Min() == s.Min && o.Max() == s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if o.N() != 0 || !math.IsNaN(o.Mean()) || !math.IsNaN(o.Min()) || !math.IsNaN(o.Max()) || o.Std() != 0 {
		t.Fatal("zero Online not in expected empty state")
	}
}
