package sim

import (
	"fmt"
	"testing"
)

// skewedLookahead is a heterogeneous shard-pair matrix whose off-diagonal
// minimum is min: row i sits i quanta above it. SetLookahead must install
// exactly min, so a workload that keeps min of lookahead on every cross
// send stays sound.
func skewedLookahead(shards int, min Duration) [][]Duration {
	m := make([][]Duration, shards)
	for i := range m {
		m[i] = make([]Duration, shards)
		for j := range m[i] {
			if i != j {
				m[i][j] = min + quantum*Duration(i)
			}
		}
	}
	return m
}

// newParallelLook builds a domain with lookahead look, installed either by
// the constructor or, from a smaller constructor value, by SetLookahead
// over a skewed matrix whose minimum is look.
func newParallelLook(ranks, shards int, look Duration, viaMatrix bool) *Parallel {
	if !viaMatrix {
		return NewParallel(ranks, shards, look)
	}
	p := NewParallel(ranks, shards, quantum)
	p.SetLookahead(skewedLookahead(p.Shards(), look))
	return p
}

// The protocol's remaining configuration matrix — lookahead width times
// how it is installed (constructor or SetLookahead's off-diagonal minimum)
// — must reproduce the serial trace on the standard workload.
func TestParallelTuningMatrixMatchesSerial(t *testing.T) {
	for _, ranks := range []int{3, 8} {
		for _, seed := range []uint64{1, 0xbeef} {
			for _, lookQ := range []int{1, 2, 3} {
				serial := runWorkload(NewEngine(), ranks, seed, 40, lookQ)
				for _, shards := range []int{2, 4} {
					for _, viaMatrix := range []bool{false, true} {
						label := fmt.Sprintf("ranks=%d seed=%d lookQ=%d shards=%d matrix=%v", ranks, seed, lookQ, shards, viaMatrix)
						p := newParallelLook(ranks, shards, quantum*Duration(lookQ), viaMatrix)
						got := runWorkload(p, ranks, seed, 40, lookQ)
						diffTraces(t, label, serial, got)
						if p.Pending() != 0 {
							t.Fatalf("%s: %d events still pending", label, p.Pending())
						}
					}
				}
			}
		}
	}
}

// runRefWorkload is runWorkload's body on the heap-backed reference engine,
// which is not a Domain (its At returns *RefEvent): cross-rank sends are
// plain At, exactly like the serial engine's CrossAt.
func runRefWorkload(ranks int, seed uint64, events, lookQ int) [][]traceRec {
	e := NewRefEngine()
	lookahead := quantum * Duration(lookQ)
	traces := make([][]traceRec, ranks)
	rngs := make([]*RNG, ranks)
	budget := make([]int, ranks)
	offs := make([]uint64, ranks)
	for r := 0; r < ranks; r++ {
		rngs[r] = NewRNG(seed + uint64(r)*0x9e3779b97f4a7c15)
		budget[r] = events
	}
	nextOff := func(rank int) Time {
		o := offs[rank]*uint64(ranks) + uint64(rank)
		offs[rank]++
		return Time(o)
	}
	alignUp := func(t Time) Time {
		q := Time(quantum)
		return (t + q - 1) / q * q
	}
	var fire func(rank int, tag uint64)
	fire = func(rank int, tag uint64) {
		traces[rank] = append(traces[rank], traceRec{at: e.Now(), tag: tag})
		if budget[rank] <= 0 {
			return
		}
		budget[rank]--
		rng := rngs[rank]
		n := rng.Intn(3)
		for i := 0; i < n; i++ {
			base := alignUp(e.Now())
			switch rng.Intn(3) {
			case 0:
				at := base + Time(quantum)*Time(rng.Intn(3)) + nextOff(rank)
				next := tag*8 + uint64(i) + 1
				e.At(at, func() { fire(rank, next) })
			case 1:
				dst := rng.Intn(ranks)
				at := base.Add(lookahead) + nextOff(rank)
				next := tag*8 + uint64(i) + 2
				e.At(at, func() { fire(dst, next) })
			default:
				dst := rng.Intn(ranks)
				at := base.Add(lookahead+quantum*Duration(rng.Intn(3))) + nextOff(rank)
				next := tag*8 + uint64(i) + 3
				e.At(at, func() { fire(dst, next) })
			}
		}
	}
	for r := 0; r < ranks; r++ {
		rank := r
		at := Time(quantum)*Time(rank%5+1) + nextOff(rank)
		e.At(at, func() { fire(rank, uint64(rank)<<32) })
	}
	e.Run()
	return traces
}

// The second independent oracle: the sharded domain must match the
// container/heap reference engine, not just the calendar-queue serial
// engine.
func TestParallelMatchesRefEngine(t *testing.T) {
	const lookQ = 2
	for _, ranks := range []int{3, 8} {
		for _, seed := range []uint64{7, 0xcafe} {
			ref := runRefWorkload(ranks, seed, 40, lookQ)
			got := runWorkload(NewParallel(ranks, 4, quantum*lookQ), ranks, seed, 40, lookQ)
			diffTraces(t, fmt.Sprintf("ref ranks=%d seed=%d", ranks, seed), ref, got)
		}
	}
}

func TestParallelSetLookaheadValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	p := NewParallel(6, 3, quantum)
	mustPanic("wrong dimension", func() { p.SetLookahead(make([][]Duration, 2)) })
	mustPanic("ragged row", func() {
		p.SetLookahead([][]Duration{{0, 1, 1}, {1, 0, 1}, {1, 1}})
	})
	mustPanic("zero off-diagonal", func() {
		p.SetLookahead([][]Duration{{0, 0, 1}, {1, 0, 1}, {1, 1, 0}})
	})

	// A valid matrix installs its off-diagonal minimum as the single
	// lookahead for every shard pair: the diagonal is ignored, a send
	// closer than the minimum panics, and a send at exactly the minimum is
	// legal even toward a shard pair whose own entry is larger.
	const close, far = 2 * quantum, 5 * quantum
	p.SetLookahead([][]Duration{
		{1, close, far},
		{close, 1, far},
		{far, far, 1},
	})
	if p.lookahead != close {
		t.Fatalf("lookahead = %v after SetLookahead, want off-diagonal minimum %v", p.lookahead, close)
	}
	mustPanic("send below the installed minimum", func() { p.CrossAt(0, 5, Time(close)-1, func() {}) })
	ok := false
	// rank 0 (shard 0) -> rank 5 (shard 2): entry is far, minimum is close.
	p.CrossAt(0, 5, Time(close), func() { ok = true })
	p.Run()
	if !ok {
		t.Fatal("send at the installed minimum did not fire")
	}
}

// localChain schedules a self-contained chain of n events on rank, each
// `gap` after the previous, recording every firing time into trace.
func localChain(dom Domain, rank, n int, gap Duration, trace *[]Time) {
	eng := dom.RankEngine(rank)
	k := 0
	var tick func()
	tick = func() {
		*trace = append(*trace, eng.Now())
		k++
		if k < n {
			eng.After(gap, tick)
		}
	}
	eng.At(0, tick)
}

// Idle-shard elision: with work confined to one shard, the other shards
// are never woken (the elision counter proves it), and the result is
// bit-identical to serial.
func TestParallelElisionSkipsIdleShards(t *testing.T) {
	const ranks, shards, chain = 8, 4, 64
	var serial, got []Time
	se := NewEngine()
	localChain(se, 0, chain, quantum/8, &serial)
	se.Run()
	p := NewParallel(ranks, shards, quantum)
	localChain(p, 0, chain, quantum/8, &got)
	p.Run()
	if p.ElidedShardRounds() == 0 {
		t.Fatalf("no shard-rounds elided across %d rounds", p.Rounds())
	}
	if len(got) != len(serial) {
		t.Fatalf("sharded fired %d events, serial %d", len(got), len(serial))
	}
	for i := range serial {
		if got[i] != serial[i] {
			t.Fatalf("event %d at %v, serial %v", i, got[i], serial[i])
		}
	}
}

// Window coalescing: a dense communication-free stretch on one shard,
// spanning many lookaheads, drains in at most two rounds — horizons are
// data-driven, and shard 1's lone event lies a full chain-length away. A
// fixed [T, T+L) window would need about chain/4 rounds.
func TestParallelCoalescingCollapsesQuietStretches(t *testing.T) {
	const ranks, shards, chain = 2, 2, 256
	var trace []Time
	p := NewParallel(ranks, shards, quantum)
	localChain(p, 0, chain, quantum/4, &trace)
	// Shard 1 has one distant event, so the domain stays genuinely
	// multi-shard throughout the stretch.
	p.RankEngine(1).At(Time(quantum)*chain, func() {})
	p.Run()
	if len(trace) != chain || p.Fired() != chain+1 {
		t.Fatalf("fired %d events (%d in the chain), want %d", p.Fired(), len(trace), chain+1)
	}
	if p.Rounds() > 2 {
		t.Fatalf("quiet stretch took %d rounds, want <= 2", p.Rounds())
	}
}

// A round that stages a cross send must clamp its window to the send's
// reflection bound: the destination echoes every arrival straight back, and
// any over-advance past the echo's timestamp would panic inside the engine
// (scheduling before now) or diverge from serial. This pins the guard
// against the one-shard-drains-everything failure mode.
func TestParallelReflectionGuard(t *testing.T) {
	const L = Duration(quantum)
	run := func(dom Domain) []traceRec {
		var trace []traceRec
		// Rank 0 (shard 0): dense local chain; its first event also sends
		// one cross message. Rank 1 (shard 1): echoes the arrival back.
		n := 0
		var tick func()
		tick = func() {
			trace = append(trace, traceRec{at: dom.RankEngine(0).Now(), tag: uint64(n)})
			n++
			if n < 128 {
				dom.RankEngine(0).After(Duration(quantum/8), tick)
			}
		}
		// The +1 offsets keep cross timestamps off the chain's tick grid:
		// same-timestamp cross/local ties are the protocol's one documented
		// (measure-zero) divergence from serial and not what this test pins.
		dom.RankEngine(0).At(0, func() {
			at := dom.RankEngine(0).Now().Add(L) + 1
			dom.CrossAt(0, 1, at, func() {
				back := dom.RankEngine(1).Now().Add(L) + 1
				dom.CrossAt(1, 0, back, func() {
					trace = append(trace, traceRec{at: dom.RankEngine(0).Now(), tag: 0xec0})
				})
			})
			tick()
		})
		dom.Run()
		return trace
	}
	serial := run(NewEngine())
	got := run(NewParallel(2, 2, L))
	if len(serial) != len(got) {
		t.Fatalf("sharded fired %d events, serial %d", len(got), len(serial))
	}
	for i := range serial {
		if serial[i] != got[i] {
			t.Fatalf("event %d = %+v, serial %+v", i, got[i], serial[i])
		}
	}
}

// runPulseWorkload drives a pulse-shaped workload: rank 0 runs a quiet
// local chain (every other shard elided), then broadcasts to all ranks at
// the lookahead floor (regrowing the active set to every shard at once),
// and the replies converge back onto shard 0 to seed the next pulse. Every
// timestamp is unique by construction, so the firing order is a pure
// function of virtual time.
func runPulseWorkload(dom Domain, ranks, pulses, quiet int) [][]traceRec {
	lookahead := quantum
	traces := make([][]traceRec, ranks)
	q := Time(quantum)
	rec := func(rank int, tag uint64) {
		traces[rank] = append(traces[rank], traceRec{at: dom.RankEngine(rank).Now(), tag: tag})
	}
	replies := 0 // touched only by shard 0's execution
	var pulse func(p int)
	pulse = func(p int) {
		if p >= pulses {
			return
		}
		e0 := dom.RankEngine(0)
		base := (e0.Now()/q + 1) * q
		for i := 0; i < quiet; i++ {
			tag := uint64(p)<<16 | uint64(i)
			e0.At(base+Time(i)*q, func() { rec(0, tag) })
		}
		bcast := base + Time(quiet)*q
		for d := 1; d < ranks; d++ {
			dst := d
			tag := uint64(p)<<16 | 0x100 | uint64(dst)
			rtag := uint64(p)<<16 | 0x200 | uint64(dst)
			dom.CrossAt(0, dst, bcast.Add(lookahead)+Time(dst), func() {
				rec(dst, tag)
				dom.CrossAt(dst, 0, dom.RankEngine(dst).Now().Add(lookahead), func() {
					rec(0, rtag)
					replies++
					if replies == ranks-1 {
						replies = 0
						pulse(p + 1)
					}
				})
			})
		}
	}
	dom.RankEngine(0).At(q, func() { pulse(0) })
	dom.Run()
	return traces
}

// The per-round active set oscillating between one shard and every shard —
// elision shrinks one round's plan, the following broadcast regrows it — is
// the regime where a runner straggling out of a small round could once pair
// its stale, exhausted work-queue cursor with the next, larger plan and
// claim (hence double-run) one of its windows. Many pulses under the race
// detector pin the round-tagged claim protocol; the trace must stay
// bit-identical to serial throughout.
func TestParallelActiveSetOscillationStress(t *testing.T) {
	const ranks, pulses, quiet = 8, 150, 3
	serial := runPulseWorkload(NewEngine(), ranks, pulses, quiet)
	for _, shards := range []int{4, 8} {
		p := NewParallel(ranks, shards, quantum)
		got := runPulseWorkload(p, ranks, pulses, quiet)
		diffTraces(t, fmt.Sprintf("shards=%d", shards), serial, got)
		if p.Pending() != 0 {
			t.Fatalf("shards=%d: %d events still pending", shards, p.Pending())
		}
		if p.ElidedShardRounds() == 0 {
			t.Fatalf("shards=%d: quiet phases elided nothing across %d rounds; workload does not oscillate",
				shards, p.Rounds())
		}
	}
}

// FuzzTuningMatrix extends the inbox-order fuzzer across the lookahead
// configuration: arbitrary workloads under an arbitrary lookahead width,
// installed by the constructor or by SetLookahead, must stay
// serial-identical. gates&3 picks the width in quanta, gates&4 the
// installation path.
func FuzzTuningMatrix(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(2), uint8(20), uint8(7))
	f.Add(uint64(99), uint8(9), uint8(3), uint8(35), uint8(0))
	f.Add(uint64(0xfeed), uint8(16), uint8(8), uint8(10), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, ranks, shards, events, gates uint8) {
		nr := int(ranks)%16 + 1
		ns := int(shards)%8 + 1
		ev := int(events) % 48
		lookQ := int(gates&3) + 1
		viaMatrix := gates&4 != 0
		serial := runWorkload(NewEngine(), nr, seed, ev, lookQ)
		p := newParallelLook(nr, ns, quantum*Duration(lookQ), viaMatrix)
		got := runWorkload(p, nr, seed, ev, lookQ)
		diffTraces(t, fmt.Sprintf("ranks=%d shards=%d lookQ=%d matrix=%v", nr, ns, lookQ, viaMatrix), serial, got)
	})
}
