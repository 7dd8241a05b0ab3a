package lci

import (
	"bytes"
	"testing"
	"testing/quick"

	"amtlci/internal/buf"
	"amtlci/internal/fabric"
	"amtlci/internal/sim"
)

func harness(n int) (*sim.Engine, *Runtime) {
	eng := sim.NewEngine()
	fc := fabric.DefaultConfig()
	fc.Jitter = 0
	fab, err := fabric.New(eng, n, fc)
	if err != nil {
		panic(err)
	}
	return eng, NewRuntime(eng, fab, DefaultConfig())
}

// pump progresses every endpoint promptly, like a dedicated progress thread.
func pump(eng *sim.Engine, rt *Runtime) {
	for i := 0; i < rt.Size(); i++ {
		ep := rt.Endpoint(i)
		ep.SetWake(func() { eng.After(10*sim.Nanosecond, ep.Progress) })
	}
}

func TestImmediateSendDeliversToHandler(t *testing.T) {
	eng, rt := harness(2)
	pump(eng, rt)
	var got []Request
	rt.Endpoint(1).SetMsgComp(Handler(func(r Request) { got = append(got, r) }))
	if err := rt.Endpoint(0).Sends(1, 42, buf.FromBytes([]byte("ping"))); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 1 || got[0].Tag != 42 || got[0].Rank != 0 || string(got[0].Data.Bytes) != "ping" {
		t.Fatalf("got = %+v", got)
	}
}

func TestImmediateOversizePanics(t *testing.T) {
	_, rt := harness(2)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize Sends did not panic")
		}
	}()
	rt.Endpoint(0).Sends(1, 1, buf.Virtual(rt.Config().ImmediateMax+1))
}

func TestBufferedSendNoPostedReceiveNeeded(t *testing.T) {
	// The receiver allocates dynamically: no receive is ever posted, yet the
	// message is delivered (contrast with MPI's persistent-receive dance).
	eng, rt := harness(2)
	pump(eng, rt)
	cq := &CQ{}
	rt.Endpoint(1).SetMsgComp(cq)
	payload := make([]byte, rt.Config().BufferedMax)
	payload[17] = 99
	if err := rt.Endpoint(0).Sendm(1, 5, buf.FromBytes(payload)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	r, ok := cq.Pop()
	if !ok || r.Data.Bytes[17] != 99 {
		t.Fatalf("CQ pop = %+v ok=%v", r, ok)
	}
	if _, ok := cq.Pop(); ok {
		t.Fatal("CQ should be empty")
	}
}

func TestBufferedSenderMayReuseBuffer(t *testing.T) {
	eng, rt := harness(2)
	pump(eng, rt)
	var seen byte
	rt.Endpoint(1).SetMsgComp(Handler(func(r Request) { seen = r.Data.Bytes[0] }))
	b := []byte{7}
	rt.Endpoint(0).Sendm(1, 1, buf.FromBytes(b))
	b[0] = 0xFF
	eng.Run()
	if seen != 7 {
		t.Fatalf("receiver saw %d, want 7 (buffered copy)", seen)
	}
}

func TestDirectRendezvousRoundTrip(t *testing.T) {
	eng, rt := harness(2)
	pump(eng, rt)
	const n = 1 << 20
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, n)
	sDone, rDone := &Sync{}, &Sync{}
	if err := rt.Endpoint(1).Recvd(0, 9, buf.FromBytes(dst), rDone, "rctx"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Endpoint(0).Sendd(1, 9, buf.FromBytes(src), sDone, "sctx"); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if r, ok := sDone.Test(); !ok || r.UserCtx != "sctx" {
		t.Fatalf("send sync = %+v ok=%v", r, ok)
	}
	r, ok := rDone.Test()
	if !ok || r.UserCtx != "rctx" || r.Rank != 0 {
		t.Fatalf("recv sync = %+v ok=%v", r, ok)
	}
	for i := 0; i < n; i += 4097 {
		if dst[i] != byte(i) {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
}

func TestDirectSendBeforeRecvMatchesLater(t *testing.T) {
	eng, rt := harness(2)
	pump(eng, rt)
	sDone := &Sync{}
	rt.Endpoint(0).Sendd(1, 3, buf.Virtual(1<<16), sDone, nil)
	eng.Run()
	if _, ok := sDone.Test(); ok {
		t.Fatal("direct send completed before a receive was posted")
	}
	rDone := &Sync{}
	rt.Endpoint(1).Recvd(AnyRank, 3, buf.Virtual(1<<16), rDone, nil)
	eng.Run()
	if _, ok := sDone.Test(); !ok {
		t.Fatal("direct send never completed")
	}
	if _, ok := rDone.Test(); !ok {
		t.Fatal("direct recv never completed")
	}
}

func TestDirectTagAndPeerSelectivity(t *testing.T) {
	eng, rt := harness(3)
	pump(eng, rt)
	wrongTag, rightTag := &Sync{}, &Sync{}
	rt.Endpoint(2).Recvd(0, 1, buf.Virtual(1<<15), wrongTag, nil) // tag mismatch
	rt.Endpoint(2).Recvd(1, 2, buf.Virtual(1<<15), rightTag, nil) // exact match
	rt.Endpoint(1).Sendd(2, 2, buf.Virtual(1<<15), nil, nil)
	eng.Run()
	if _, ok := wrongTag.Test(); ok {
		t.Fatal("mismatched receive completed")
	}
	if _, ok := rightTag.Test(); !ok {
		t.Fatal("matching receive did not complete")
	}
}

func TestRecvdBackPressureErrRetry(t *testing.T) {
	eng, rt := harness(2)
	cfg := rt.Config()
	ep := rt.Endpoint(1)
	for i := 0; i < cfg.MaxDirect; i++ {
		if err := ep.Recvd(AnyRank, i, buf.Virtual(8), nil, nil); err != nil {
			t.Fatalf("post %d failed early: %v", i, err)
		}
	}
	if err := ep.Recvd(AnyRank, 999999, buf.Virtual(8), nil, nil); err != ErrRetry {
		t.Fatalf("err = %v, want ErrRetry", err)
	}
	if ep.Retries() != 1 {
		t.Fatalf("Retries = %d, want 1", ep.Retries())
	}
	_ = eng
}

func TestSendPacketPoolBackPressureAndRecycle(t *testing.T) {
	eng, rt := harness(2)
	pump(eng, rt)
	rt.Endpoint(1).SetMsgComp(Handler(func(Request) {}))
	ep := rt.Endpoint(0)
	n := rt.Config().SendPackets
	for i := 0; i < n; i++ {
		if err := ep.Sends(1, 1, buf.Virtual(8)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := ep.Sends(1, 1, buf.Virtual(8)); err != ErrRetry {
		t.Fatalf("err = %v, want ErrRetry at pool exhaustion", err)
	}
	// Drain the network; packets recycle and sends work again.
	eng.Run()
	if err := ep.Sends(1, 1, buf.Virtual(8)); err != nil {
		t.Fatalf("send after recycle: %v", err)
	}
}

func TestCompletionHandlersRunInProgressContext(t *testing.T) {
	// Without a Progress call, nothing completes — LCI's explicit-progress
	// contract (§5.2).
	eng, rt := harness(2)
	got := 0
	rt.Endpoint(1).SetMsgComp(Handler(func(Request) { got++ }))
	rt.Endpoint(0).Sends(1, 1, buf.Virtual(8))
	eng.Run() // no wake installed => no Progress
	if got != 0 {
		t.Fatal("completion delivered without Progress")
	}
	if !rt.Endpoint(1).StagedWork() {
		t.Fatal("arrival not staged")
	}
	rt.Endpoint(1).Progress()
	if got != 1 {
		t.Fatal("completion not delivered by Progress")
	}
}

func TestProgressCostScalesWithCompletionsNotPosted(t *testing.T) {
	// LCI's key cost property: a pile of posted-but-idle receives costs
	// nothing to progress; only completed work costs.
	eng, rt := harness(2)
	ep := rt.Endpoint(1)
	for i := 0; i < 500; i++ {
		ep.Recvd(AnyRank, i+100, buf.Virtual(8), nil, nil)
	}
	idleCost := ep.ProgressCost()
	if idleCost > rt.Config().ProgressBase {
		t.Fatalf("idle progress cost %v grew with posted receives", idleCost)
	}
	rt.Endpoint(0).Sends(1, 1, buf.Virtual(8))
	eng.Run()
	if ep.ProgressCost() <= idleCost {
		t.Fatal("staged arrival did not increase progress cost")
	}
}

func TestSyncDoubleSignalPanics(t *testing.T) {
	s := &Sync{}
	s.signal(Request{})
	defer func() {
		if recover() == nil {
			t.Fatal("double signal did not panic")
		}
	}()
	s.signal(Request{})
}

func TestCQFIFO(t *testing.T) {
	q := &CQ{}
	for i := 0; i < 10; i++ {
		q.push(Request{Tag: i})
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 10; i++ {
		r, ok := q.Pop()
		if !ok || r.Tag != i {
			t.Fatalf("pop %d = %+v ok=%v", i, r, ok)
		}
	}
}

func TestManyConcurrentDirectTransfersConserveData(t *testing.T) {
	f := func(seeds []uint16) bool {
		if len(seeds) > 64 {
			seeds = seeds[:64]
		}
		eng, rt := harness(4)
		pump(eng, rt)
		completed := 0
		want := 0
		for i, s := range seeds {
			src := int(s % 4)
			dst := int((s / 4) % 4)
			if src == dst {
				continue
			}
			want++
			size := int64(s)*100 + 1
			tag := 1000 + i
			rt.Endpoint(dst).Recvd(src, tag, buf.Virtual(size), Handler(func(r Request) {
				if r.Data.Size == size {
					completed++
				}
			}), nil)
			rt.Endpoint(src).Sendd(dst, tag, buf.Virtual(size), nil, nil)
		}
		eng.Run()
		return completed == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLCIPerMessageCostBelowMPI(t *testing.T) {
	// Structural sanity for the paper's premise: the LCI software path is
	// cheaper than the MPI software path for an eager-sized message.
	lciCfg := DefaultConfig()
	if lciCfg.SendCost(1024) >= 220*sim.Nanosecond+sim.Duration(1024*50) {
		t.Skip("cost models changed; revisit calibration")
	}
}

// TestBufferedBurstHeldPacketsStayIntact sends a burst of distinct Buffered
// payloads from one reused sender buffer and progresses all of them before
// freeing any: every held arrival must still read back byte-exact, and
// after the frees the packets serve a second burst just as well.
func TestBufferedBurstHeldPacketsStayIntact(t *testing.T) {
	eng, rt := harness(2)
	pump(eng, rt)
	var held []Request
	rt.Endpoint(1).SetMsgComp(Handler(func(r Request) { held = append(held, r) }))
	ep := rt.Endpoint(0)
	want := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i * 7)}, 100+i) }
	for round := 0; round < 2; round++ {
		held = held[:0]
		scratch := make([]byte, 0, 512)
		const n = 32
		for i := 0; i < n; i++ {
			scratch = append(scratch[:0], want(i)...)
			if err := ep.Sendm(1, i, buf.FromBytes(scratch)); err != nil {
				t.Fatal(err)
			}
			clear(scratch) // the send copied it: the sender may reuse at once
		}
		eng.Run()
		if len(held) != n {
			t.Fatalf("round %d: %d of %d arrivals", round, len(held), n)
		}
		for _, r := range held {
			if !bytes.Equal(r.Data.Bytes, want(r.Tag)) {
				t.Fatalf("round %d: message %d corrupted while held", round, r.Tag)
			}
		}
		for _, r := range held {
			rt.Endpoint(1).Free(r)
		}
	}
}

// wire is a fabric.Network that holds messages until flush delivers them,
// egress completion first. It runs no simulated time, so allocation counts
// taken over it are the library's alone.
type wire struct {
	h []fabric.Handler
	q []*fabric.Message
}

func (w *wire) Ranks() int                         { return len(w.h) }
func (w *wire) SetHandler(r int, h fabric.Handler) { w.h[r] = h }
func (w *wire) Send(m *fabric.Message)             { w.q = append(w.q, m) }

func (w *wire) flush() {
	for i := 0; i < len(w.q); i++ {
		m := w.q[i]
		if m.OnTx != nil {
			m.OnTx()
		}
		w.h[m.Dst](m)
	}
	clear(w.q)
	w.q = w.q[:0]
}

// TestFreedPacketIsReused pins the eager path's steady state: once arrivals
// are freed, the next send takes the freed packet, so a send, its delivery,
// the free and the packet's release allocate nothing.
func TestFreedPacketIsReused(t *testing.T) {
	w := &wire{h: make([]fabric.Handler, 2)}
	rt := NewRuntime(sim.NewEngine(), w, DefaultConfig())
	src, dst := rt.Endpoint(0), rt.Endpoint(1)
	got := 0
	dst.SetMsgComp(Handler(func(r Request) {
		got++
		dst.Free(r)
	}))
	payload := buf.FromBytes(make([]byte, 1024))
	send := func() {
		if err := src.Sendm(1, 1, payload); err != nil {
			t.Fatal(err)
		}
		w.flush()
		dst.Progress() // deliver and free
		src.Progress() // retire the packet-pool slot
	}
	send() // warm the packet pool and the staged-work buffers
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("%v allocs per eager message after Free, want 0", allocs)
	}
	if got != 102 {
		t.Fatalf("delivered %d messages, want 102", got)
	}
}

func TestFreeMisusePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	eng, rt := harness(2)
	pump(eng, rt)
	dst := rt.Endpoint(1)
	var msgs []Request
	dst.SetMsgComp(Handler(func(r Request) { msgs = append(msgs, r) }))
	rt.Endpoint(0).Sendm(1, 1, buf.FromBytes([]byte("once")))
	sDone, rDone := &Sync{}, &Sync{}
	dst.Recvd(0, 2, buf.Virtual(1<<16), rDone, nil)
	rt.Endpoint(0).Sendd(1, 2, buf.Virtual(1<<16), sDone, nil)
	eng.Run()
	if len(msgs) != 1 {
		t.Fatalf("%d arrivals", len(msgs))
	}
	dst.Free(msgs[0])
	mustPanic("double Free", func() { dst.Free(msgs[0]) })
	// A second message may reuse the freed packet; the stale Request must
	// still be refused.
	rt.Endpoint(0).Sendm(1, 1, buf.FromBytes([]byte("twice")))
	eng.Run()
	mustPanic("stale Free after reuse", func() { dst.Free(msgs[0]) })
	dst.Free(msgs[1])
	r, _ := rDone.Test()
	mustPanic("Free of a Direct receive completion", func() { dst.Free(r) })
	s, _ := sDone.Test()
	mustPanic("Free of a Direct send completion", func() { rt.Endpoint(0).Free(s) })
}
