package sim

import "testing"

// Regression: a stop armed while the engine is idle used to be silently
// discarded because Run/RunUntil reset the flag on entry. A pre-armed stop
// must make the next run return immediately at the current clock, firing
// nothing — and be consumed by that run, so the one after proceeds normally.
func TestPreArmedStopAbortsNextRun(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.Stop()
	if got := e.Run(); got != 0 {
		t.Fatalf("pre-armed stop: Run() = %v, want 0 (entry clock)", got)
	}
	if fired != 0 {
		t.Fatalf("pre-armed stop fired %d events, want 0", fired)
	}
	// The stop was consumed by the aborted run: the next Run proceeds and
	// fires the event.
	if got := e.Run(); got != 10 || fired != 1 {
		t.Fatalf("post-stop Run() = %v (fired %d), want 10 (fired 1)", got, fired)
	}
}

func TestPreArmedStopAbortsNextRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.Stop()
	// A pre-armed stop revokes the horizon advance too: the clock stays at
	// the entry clock rather than jumping to t.
	if got := e.RunUntil(50); got != 0 {
		t.Fatalf("pre-armed stop: RunUntil(50) = %v, want 0", got)
	}
	if fired != 0 {
		t.Fatalf("pre-armed stop fired %d events, want 0", fired)
	}
	if got := e.RunUntil(50); got != 50 || fired != 1 {
		t.Fatalf("post-stop RunUntil(50) = %v (fired %d), want 50 (fired 1)", got, fired)
	}
}

// Pin the documented RunUntil+Stop contract: a mid-horizon stop leaves the
// clock at the last fired event, NOT advanced to t.
func TestRunUntilMidHorizonStopLeavesClockAtLastEvent(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.At(10, func() { fired = append(fired, e.Now()) })
	e.At(20, func() {
		fired = append(fired, e.Now())
		e.Stop()
	})
	e.At(30, func() { fired = append(fired, e.Now()) })
	if got := e.RunUntil(100); got != 20 {
		t.Fatalf("RunUntil(100) with stop at t=20 returned %v, want 20", got)
	}
	if e.Now() != 20 {
		t.Fatalf("clock advanced to %v after mid-horizon stop, want 20", e.Now())
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want exactly the events at 10 and 20", fired)
	}
	// Flag consumed: the 30-event and the horizon advance happen next call.
	if got := e.RunUntil(100); got != 100 || len(fired) != 3 {
		t.Fatalf("resumed RunUntil(100) = %v (fired %d), want 100 (fired 3)", got, len(fired))
	}
}

// Differential: RefEngine must agree with Engine on every Stop interaction.
func TestStopSemanticsMatchRefEngine(t *testing.T) {
	type run struct {
		ret   Time
		fired []Time
	}
	drive := func(preArm bool, stopAt Time, horizon Time) (eng, ref run) {
		e := NewEngine()
		r := NewRefEngine()
		for _, at := range []Time{5, 15, 25, 35} {
			at := at
			e.At(at, func() {
				eng.fired = append(eng.fired, e.Now())
				if at == stopAt {
					e.Stop()
				}
			})
			r.At(at, func() {
				ref.fired = append(ref.fired, r.Now())
				if at == stopAt {
					r.Stop()
				}
			})
		}
		if preArm {
			e.Stop()
			r.Stop()
		}
		eng.ret = e.RunUntil(horizon)
		ref.ret = r.RunUntil(horizon)
		return
	}
	cases := []struct {
		preArm  bool
		stopAt  Time
		horizon Time
	}{
		{false, -1, 30}, // no stop: plain horizon
		{false, 15, 30}, // mid-horizon stop
		{false, 35, 30}, // stop event beyond horizon: never fires
		{true, -1, 30},  // pre-armed stop
	}
	for _, c := range cases {
		eng, ref := drive(c.preArm, c.stopAt, c.horizon)
		if eng.ret != ref.ret {
			t.Errorf("case %+v: Engine returned %v, RefEngine %v", c, eng.ret, ref.ret)
		}
		if len(eng.fired) != len(ref.fired) {
			t.Errorf("case %+v: Engine fired %v, RefEngine %v", c, eng.fired, ref.fired)
			continue
		}
		for i := range eng.fired {
			if eng.fired[i] != ref.fired[i] {
				t.Errorf("case %+v: firing diverged: %v vs %v", c, eng.fired, ref.fired)
				break
			}
		}
	}
}

// Regression: When() used to return a bare 0 for both dead handles and
// legitimate time-zero events. The two-value form distinguishes them.
func TestWhenDistinguishesTimeZeroFromDead(t *testing.T) {
	e := NewEngine()
	ev := e.At(0, func() {})
	if w, ok := ev.When(); !ok || w != 0 {
		t.Fatalf("pending time-zero event: When() = (%v, %v), want (0, true)", w, ok)
	}
	later := e.At(7, func() {})
	if w, ok := later.When(); !ok || w != 7 {
		t.Fatalf("pending event: When() = (%v, %v), want (7, true)", w, ok)
	}
	e.Run()
	if _, ok := ev.When(); ok {
		t.Fatal("fired event still reports a When")
	}
	e.Cancel(later) // no-op on fired handle, and keeps Cancel covered here
	var zero Event
	if w, ok := zero.When(); ok || w != 0 {
		t.Fatalf("zero-value handle: When() = (%v, %v), want (0, false)", w, ok)
	}
	canceled := e.At(e.Now().Add(5), func() {})
	e.Cancel(canceled)
	if _, ok := canceled.When(); ok {
		t.Fatal("canceled event still reports a When")
	}
}
