// Package micro holds the simulator's steady-state microbenchmarks: event
// scheduling on the calendar-queue engine and on the heap-backed reference
// engine (the before/after pair behind BENCH_sim.json), Proc ring-buffer
// dispatch, fabric delivery of virtual-payload messages, and the LCI
// communication path above it: lci eager and Direct messages, lcice active
// messages and puts.
//
// The harness bodies are exported funcs so cmd/benchrecord can run them
// programmatically via testing.Benchmark; micro_test.go wraps the same
// bodies as ordinary Benchmark* functions for `go test -bench`.
package micro

import (
	"sync/atomic"
	"testing"

	"amtlci/internal/buf"
	"amtlci/internal/core"
	"amtlci/internal/core/lcice"
	"amtlci/internal/fabric"
	"amtlci/internal/lci"
	"amtlci/internal/sim"
)

// benchLCG steps a splitmix-style generator; delays must be cheap and
// deterministic so the benchmark measures the queue, not the RNG.
func benchLCG(s uint64) uint64 {
	return s*6364136223846793005 + 1442695040888963407
}

// tickDelay maps an LCG state to a near-future-dominated delay: mostly
// within a few dozen calendar buckets (sub-20µs), with one event in 256
// jumping far enough to land in the overflow tier, matching the delay mix a
// real run produces (wire latencies and gaps near, timeouts far).
func tickDelay(s uint64) sim.Duration {
	d := sim.Duration(s>>40) + 1 // up to ~16.7µs in ps
	if s&0xFF == 0 {
		d += sim.Duration(1) << 33 // ~8.6ms: beyond the calendar window
	}
	return d
}

const tickFanout = 512 // concurrently pending events in the schedule loops

// EngineScheduleFire drives the calendar-queue engine with a self-refilling
// population of events. Steady state should be allocation-free: every fired
// event's slot goes back to the pool before its callback schedules the next.
func EngineScheduleFire(b *testing.B) {
	e := sim.NewEngine()
	fired := 0
	rng := uint64(0x9E3779B97F4A7C15)
	type tick struct{ fire func() }
	ticks := make([]tick, tickFanout)
	for i := range ticks {
		t := &ticks[i]
		t.fire = func() {
			fired++
			if fired < b.N {
				rng = benchLCG(rng)
				e.After(tickDelay(rng), t.fire)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range ticks {
		rng = benchLCG(rng)
		e.After(tickDelay(rng), ticks[i].fire)
	}
	e.Run()
}

// RefEngineScheduleFire is the identical workload on the container/heap
// reference engine — the baseline the calendar queue is measured against.
func RefEngineScheduleFire(b *testing.B) {
	e := sim.NewRefEngine()
	fired := 0
	rng := uint64(0x9E3779B97F4A7C15)
	type tick struct{ fire func() }
	ticks := make([]tick, tickFanout)
	for i := range ticks {
		t := &ticks[i]
		t.fire = func() {
			fired++
			if fired < b.N {
				rng = benchLCG(rng)
				e.After(tickDelay(rng), t.fire)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range ticks {
		rng = benchLCG(rng)
		e.After(tickDelay(rng), ticks[i].fire)
	}
	e.Run()
}

// ParallelDomainThroughput returns a harness measuring event throughput on
// a sharded sim.Parallel domain with the given shard count: 32 rank
// calendars, each self-refilling with local events, with every eighth event
// sending a cross-rank event one lookahead ahead — the access mix the
// sharded stack produces (mostly shard-local work, a steady trickle of
// conservative cross-shard traffic). ns/op includes the window-barrier
// overhead, so shards=1 vs shards=N is exactly the serial-vs-sharded
// simulator comparison BENCH_sim.json records. Wall-clock speedup needs
// GOMAXPROCS >= shards; on fewer cores the sharded numbers measure barrier
// overhead alone.
func ParallelDomainThroughput(shards int) func(*testing.B) {
	return func(b *testing.B) {
		const ranks = 32
		const lookahead = sim.Duration(1) << 20 // ~1.05µs in ns units
		dom := sim.NewParallel(ranks, shards, lookahead)
		var fired atomic.Int64
		type tick struct {
			rank int
			rng  uint64
			fire func()
		}
		ticks := make([]tick, ranks)
		for i := range ticks {
			t := &ticks[i]
			t.rank = i
			t.rng = benchLCG(uint64(i+1) * 0x9E3779B97F4A7C15)
			eng := dom.RankEngine(t.rank)
			t.fire = func() {
				n := fired.Add(1)
				if n >= int64(b.N) {
					dom.Stop()
					return
				}
				t.rng = benchLCG(t.rng)
				if t.rng&7 == 0 {
					dst := (t.rank + 1) % ranks
					dom.CrossAt(t.rank, dst, eng.Now().Add(lookahead+tickDelay(t.rng)),
						ticks[dst].fire)
					return
				}
				eng.After(tickDelay(t.rng), t.fire)
			}
		}
		b.ResetTimer()
		for i := range ticks {
			dom.RankEngine(i).After(tickDelay(ticks[i].rng), ticks[i].fire)
		}
		dom.Run()
		b.StopTimer()
		if fired.Load() == 0 && b.N > 0 {
			b.Fatal("parallel domain fired nothing")
		}
	}
}

// ParallelRoundOverhead returns a harness measuring the sharded domain's
// round-coordination cost in isolation: ranks == shards, every shard holds
// exactly one self-refilling event scheduled one lookahead window ahead, so
// each round admits one event per shard and ns/op is dominated by the
// protocol itself — the lock-free nextTime scan, window computation, and
// barrier — not by event execution. The steady state must be allocation
// free (the zero-alloc test in this package pins it), and the harness
// reports rounds/op so callers can convert per-event numbers to per-round.
func ParallelRoundOverhead(shards int) func(*testing.B) {
	return func(b *testing.B) {
		const lookahead = sim.Duration(1) << 20
		dom := sim.NewParallel(shards, shards, lookahead)
		var fired atomic.Int64
		type tick struct{ fire func() }
		ticks := make([]tick, shards)
		for i := range ticks {
			t := &ticks[i]
			eng := dom.RankEngine(i)
			t.fire = func() {
				if fired.Add(1) >= int64(b.N) {
					dom.Stop()
					return
				}
				eng.After(lookahead, t.fire)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range ticks {
			dom.RankEngine(i).After(lookahead, ticks[i].fire)
		}
		dom.Run()
		b.StopTimer()
		if fired.Load() == 0 && b.N > 0 {
			b.Fatal("parallel domain fired nothing")
		}
		if r := dom.Rounds(); r > 0 && b.N > 0 {
			b.ReportMetric(float64(r)/float64(b.N), "rounds/op")
		}
	}
}

// EngineScheduleCancel measures the schedule-then-cancel cycle (the
// retransmission-timer pattern: most timers armed by the reliability layer
// are canceled by an ACK before they fire).
func EngineScheduleCancel(b *testing.B) {
	e := sim.NewEngine()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(e.After(100*sim.Microsecond, nop))
	}
}

// ProcSubmitDispatch measures the FIFO engine's ring buffer with a
// steadily ~32-deep queue, the regime the NIC tx/rx engines run in under
// many-to-one traffic.
func ProcSubmitDispatch(b *testing.B) {
	e := sim.NewEngine()
	p := sim.NewProc(e)
	done := 0
	var fn func()
	fn = func() {
		done++
		if done+32 <= b.N {
			p.Submit(10, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 32 && i < b.N; i++ {
		p.Submit(10, fn)
	}
	e.Run()
	b.StopTimer()
	if done == 0 && b.N > 0 {
		b.Fatal("proc dispatched nothing")
	}
}

func benchFabric(b *testing.B, size int64) {
	e := sim.NewEngine()
	cfg := fabric.DefaultConfig()
	f, err := fabric.New(e, 2, cfg)
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	m := &fabric.Message{Src: 0, Dst: 1, Size: size}
	f.SetHandler(0, func(*fabric.Message) {})
	f.SetHandler(1, func(mm *fabric.Message) {
		n++
		if n < b.N {
			mm.Src, mm.Dst = 0, 1
			f.Send(mm)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	f.Send(m)
	e.Run()
	b.StopTimer()
	if n < b.N {
		b.Fatalf("delivered %d of %d messages", n, b.N)
	}
}

// FabricDeliveryCtl measures end-to-end delivery of a virtual-payload
// control-lane message (1 KiB ≤ CtlBypass). With pooled events and pooled
// transfer state this path must not allocate.
func FabricDeliveryCtl(b *testing.B) { benchFabric(b, 1024) }

// FabricDeliveryBulk measures the bulk lane (64 KiB > CtlBypass): transmit
// engine, wire, receive engine — the per-tile path of the HiCMA runs.
func FabricDeliveryBulk(b *testing.B) { benchFabric(b, 64<<10) }

// lciWarmup is the simulated time an LCI harness runs before its timer and
// allocation counters start: dozens of revolutions of the engine's ~1.07 ms
// calendar window. By then every pool on the LCI path has reached its
// steady-state size, and the calendar's buckets, which grow to their own
// peak occupancy, rarely grow further; without the warm-up those one-time
// allocations would be spread over b.N and only round away for the large
// b.N of an uninstrumented run, not under the race detector.
const lciWarmup = sim.Time(40 * sim.Millisecond)

// steady counts an LCI harness's ops: none until lciWarmup, then b.N.
type steady struct {
	b    *testing.B
	e    *sim.Engine
	n    int
	warm bool
}

// next records one completed op and reports whether another is wanted.
func (s *steady) next() bool {
	if !s.warm {
		if s.e.Now() >= lciWarmup {
			s.warm = true
			s.b.ResetTimer()
		}
		return true
	}
	s.n++
	return s.n < s.b.N
}

// done stops the timer and fails a harness whose workload stalled.
func (s *steady) done(what string) {
	s.b.StopTimer()
	if s.n < s.b.N {
		s.b.Fatalf("completed %d of %d %s", s.n, s.b.N, what)
	}
}

// lciPair builds a two-rank LCI runtime over a default fabric with each
// endpoint progressed promptly from a callback bound once, like a dedicated
// progress thread.
func lciPair(b *testing.B) (*sim.Engine, *lci.Runtime) {
	e := sim.NewEngine()
	f, err := fabric.New(e, 2, fabric.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rt := lci.NewRuntime(e, f, lci.DefaultConfig())
	for i := 0; i < rt.Size(); i++ {
		progress := rt.Endpoint(i).Progress
		rt.Endpoint(i).SetWake(func() { e.After(0, progress) })
	}
	return e, rt
}

// LCIEagerRoundTrip ping-pongs a 256-byte Buffered message between two
// endpoints; each arrival is freed and answered from its handler. ns/op and
// allocs/op are per one-way message: the packet, its payload copy, the
// staged completions and the fabric transfer must all come from pools.
func LCIEagerRoundTrip(b *testing.B) {
	e, rt := lciPair(b)
	s := &steady{b: b, e: e}
	payload := buf.FromBytes(make([]byte, 256))
	for i := 0; i < rt.Size(); i++ {
		ep := rt.Endpoint(i)
		ep.SetMsgComp(lci.Handler(func(r lci.Request) {
			ep.Free(r)
			if s.next() {
				if err := ep.Sendm(r.Rank, 1, payload); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	b.ReportAllocs()
	if err := rt.Endpoint(0).Sendm(1, 1, payload); err != nil {
		b.Fatal(err)
	}
	e.Run()
	s.done("messages")
}

// LCIDirectRoundTrip ping-pongs a 16 KiB Direct (rendezvous) transfer: the
// receiver posts Recvd, the sender Sendd, and the receive completion starts
// the transfer back. Per one-way message: RTS, CTS and Data packets, two
// Direct ops and two completions, all pooled.
func LCIDirectRoundTrip(b *testing.B) {
	e, rt := lciPair(b)
	s := &steady{b: b, e: e}
	data := [2]buf.Buf{buf.FromBytes(make([]byte, 16<<10)), buf.FromBytes(make([]byte, 16<<10))}
	var start func(src, dst int)
	var landed [2]lci.Comp
	for i := range landed {
		i := i
		landed[i] = lci.Handler(func(r lci.Request) {
			if s.next() {
				start(i, r.Rank)
			}
		})
	}
	start = func(src, dst int) {
		if err := rt.Endpoint(dst).Recvd(src, 7, data[dst], landed[dst], nil); err != nil {
			b.Fatal(err)
		}
		if err := rt.Endpoint(src).Sendd(dst, 7, data[src], nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	start(0, 1)
	e.Run()
	s.done("transfers")
}

// lcicePair builds two LCI communication engines (lcice over lci over the
// default fabric), as stack.Build would.
func lcicePair(b *testing.B) (*sim.Engine, [2]*lcice.Engine) {
	e := sim.NewEngine()
	f, err := fabric.New(e, 2, fabric.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rt := lci.NewRuntime(e, f, lci.DefaultConfig())
	var engines [2]*lcice.Engine
	for i := range engines {
		engines[i] = lcice.New(e, rt, i, lcice.DefaultConfig())
	}
	return e, engines
}

// LCICEActiveMessage ping-pongs a 256-byte active message between two
// communication engines, each callback answering from the communication
// thread: send handle, LCI packet, progress pass, AM-FIFO handle and
// dispatch, per message.
func LCICEActiveMessage(b *testing.B) {
	const tag core.Tag = 3
	e, engines := lcicePair(b)
	s := &steady{b: b, e: e}
	payload := make([]byte, 256)
	for _, ce := range engines {
		ce.TagReg(tag, func(ce core.Engine, _ core.Tag, _ []byte, src int) {
			if s.next() {
				ce.SendAM(tag, src, payload)
			}
		}, int64(len(payload)))
	}
	b.ReportAllocs()
	engines[0].SendAM(tag, 1, payload)
	e.Run()
	s.done("active messages")
}

// LCICEPut ping-pongs puts between two communication engines: one op is
// one eager-size put (4 KiB, carried inside the handshake) plus one
// rendezvous-size put (64 KiB, handshake then Direct transfer) toward the
// peer, whose remote-completion callback, on the second landing, issues the
// next op back.
func LCICEPut(b *testing.B) {
	const doneTag core.Tag = 4
	const eager, rndv = 4 << 10, 64 << 10
	e, engines := lcicePair(b)
	s := &steady{b: b, e: e}
	var src, dst [2]core.MemHandle
	for i, ce := range engines {
		src[i] = ce.MemReg(buf.FromBytes(make([]byte, eager+rndv)))
		dst[i] = ce.MemReg(buf.FromBytes(make([]byte, eager+rndv)))
	}
	put := func(from int) {
		ce, to := engines[from], 1-from
		ce.Put(core.PutArgs{LReg: src[from], RReg: dst[to], Size: eager, Remote: to, RTag: doneTag})
		ce.Put(core.PutArgs{LReg: src[from], LDispl: eager, RReg: dst[to], RDispl: eager,
			Size: rndv, Remote: to, RTag: doneTag})
	}
	landed := 0
	for i, ce := range engines {
		i := i
		ce.TagReg(doneTag, func(core.Engine, core.Tag, []byte, int) {
			if landed++; landed%2 == 0 && s.next() {
				put(i)
			}
		}, 0)
	}
	b.ReportAllocs()
	engines[0].Submit(0, func() { put(0) })
	e.Run()
	s.done("put pairs")
}
