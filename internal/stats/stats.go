// Package stats provides the small statistical toolkit used by the
// experiment harnesses: summary statistics over float64 samples and the
// paper's measurement methodology (Section 6.1.3: run a benchmark 18 times in
// succession, discard the first three runs, and report the mean of the
// remaining 15; HiCMA runs use a straight mean of five).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes summary statistics. An empty sample yields a zero
// Summary with N == 0.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	s.Median = Percentile(xs, 50)
	return s
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) using linear interpolation
// between closest ranks. It returns NaN for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Methodology describes a repeated-measurement protocol.
type Methodology struct {
	Runs    int // total executions
	Discard int // warm-up executions dropped from the front
}

// Microbenchmark is the protocol of Sections 6.2 and 6.3: 18 runs, discard
// the first 3, mean of the remaining 15.
var Microbenchmark = Methodology{Runs: 18, Discard: 3}

// HiCMA is the protocol of Section 6.4: mean of five successive executions.
var HiCMA = Methodology{Runs: 5, Discard: 0}

// Collect runs f Runs times (passing the run index) and returns the mean of
// the retained samples. It panics if the methodology retains nothing.
func (m Methodology) Collect(f func(run int) float64) float64 {
	if m.Runs <= m.Discard {
		panic(fmt.Sprintf("stats: methodology retains no runs (%d runs, %d discarded)", m.Runs, m.Discard))
	}
	samples := make([]float64, 0, m.Runs-m.Discard)
	for i := 0; i < m.Runs; i++ {
		v := f(i)
		if i >= m.Discard {
			samples = append(samples, v)
		}
	}
	return Mean(samples)
}

// CollectAll is Collect but returns every retained sample.
func (m Methodology) CollectAll(f func(run int) float64) []float64 {
	if m.Runs <= m.Discard {
		panic(fmt.Sprintf("stats: methodology retains no runs (%d runs, %d discarded)", m.Runs, m.Discard))
	}
	samples := make([]float64, 0, m.Runs-m.Discard)
	for i := 0; i < m.Runs; i++ {
		v := f(i)
		if i >= m.Discard {
			samples = append(samples, v)
		}
	}
	return samples
}

// Online accumulates streaming mean/min/max/count without storing samples.
// The zero value is ready to use.
type Online struct {
	n          int
	mean, m2   float64
	min, max   float64
	hasExtrema bool
}

// Add incorporates x (Welford update).
func (o *Online) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
	if !o.hasExtrema || x < o.min {
		o.min = x
	}
	if !o.hasExtrema || x > o.max {
		o.max = x
	}
	o.hasExtrema = true
}

// Merge folds another accumulator into this one (Chan et al. parallel
// Welford combine), as if every sample of b had been Added here. Merging the
// same accumulators in the same order is deterministic; different orders
// differ only in float rounding.
func (o *Online) Merge(b *Online) {
	if b.n == 0 {
		return
	}
	if o.n == 0 {
		*o = *b
		return
	}
	n := o.n + b.n
	d := b.mean - o.mean
	o.m2 += b.m2 + d*d*float64(o.n)*float64(b.n)/float64(n)
	o.mean += d * float64(b.n) / float64(n)
	o.n = n
	if b.min < o.min {
		o.min = b.min
	}
	if b.max > o.max {
		o.max = b.max
	}
}

// N returns the count of samples.
func (o *Online) N() int { return o.n }

// Mean returns the running mean (NaN when empty).
func (o *Online) Mean() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.mean
}

// Std returns the running sample standard deviation (0 for n < 2).
func (o *Online) Std() float64 {
	if o.n < 2 {
		return 0
	}
	return math.Sqrt(o.m2 / float64(o.n-1))
}

// Min returns the smallest sample (NaN when empty).
func (o *Online) Min() float64 {
	if !o.hasExtrema {
		return math.NaN()
	}
	return o.min
}

// Max returns the largest sample (NaN when empty).
func (o *Online) Max() float64 {
	if !o.hasExtrema {
		return math.NaN()
	}
	return o.max
}
