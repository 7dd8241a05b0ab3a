package bench

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Experiment sweeps are embarrassingly parallel: every point builds its own
// simulation engine, fabric, stacks, and seeded RNGs, and nothing in the
// runtime shares mutable globals. Sweep exploits that — points run on a
// worker pool, but results land in the output slice at their point's index,
// so tables, CSVs, and best-tile selections are byte-identical to a serial
// run regardless of worker count or OS scheduling.

// SweepWorkers normalizes a -j flag value against a sweep of n points:
// j <= 0 means one worker per CPU, anything else is used as given — but the
// result is always capped at n (and floored at 1), because a sweep can never
// keep more than n workers busy. This is the same clamp Sweep and SweepCtx
// apply internally; having it here too means callers that size goroutine
// pools, channel buffers, or semaphores from SweepWorkers(j, n) do not
// over-provision slots that could never be used.
func SweepWorkers(j, n int) int {
	w := j
	if j <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Sweep evaluates point(0..n-1) on up to `workers` goroutines and returns
// the results in point order. point must be self-contained: it may not
// touch another point's simulation state (every caller builds a fresh
// engine per point, which is what makes this sound).
// workers is clamped to n; workers <= 1 runs serially on the caller's
// goroutine. Sweep is SweepCtx with a background context: it always runs
// every point.
func Sweep[T any](workers, n int, point func(i int) T) []T {
	out, _ := SweepCtx(context.Background(), workers, n, point)
	return out
}

// SweepCtx is Sweep with cancellation: when ctx is cancelled it stops
// dispatching new points, waits for the points already in flight to finish,
// and returns the results of the completed prefix along with ctx.Err().
//
// Points are dispatched in index order, and a dispatched point always runs
// to completion, so the returned slice is a gap-free prefix of the full
// sweep: len(result) points completed, everything past it was never
// started. A nil error means the prefix is the whole sweep.
func SweepCtx[T any](ctx context.Context, workers, n int, point func(i int) T) ([]T, error) {
	out := make([]T, n)
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out[:i], err
			}
			out[i] = point(i)
		}
		return out, ctx.Err()
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = point(i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// Every claimed index ran to completion (workers only observe
		// cancellation between points), and indices are claimed in order,
		// so the completed prefix is exactly the claimed range.
		claimed := int(next.Load())
		if claimed > n {
			claimed = n
		}
		return out[:claimed], err
	}
	return out, nil
}
