package lcice

import (
	"bytes"
	"testing"

	"amtlci/internal/buf"
	"amtlci/internal/core"
	"amtlci/internal/fabric"
	"amtlci/internal/lci"
	"amtlci/internal/sim"
)

func harness(n int, cfg Config) (*sim.Engine, []*Engine) {
	return harnessLCI(n, cfg, lci.DefaultConfig())
}

// harnessLCI is harness with an explicit LCI library configuration.
func harnessLCI(n int, cfg Config, lcfg lci.Config) (*sim.Engine, []*Engine) {
	eng := sim.NewEngine()
	fc := fabric.DefaultConfig()
	fc.Jitter = 0
	fab, err := fabric.New(eng, n, fc)
	if err != nil {
		panic(err)
	}
	rt := lci.NewRuntime(eng, fab, lcfg)
	engines := make([]*Engine, n)
	for i := range engines {
		engines[i] = New(eng, rt, i, cfg)
	}
	return eng, engines
}

func TestAMBatchFairness(t *testing.T) {
	// §5.3.4: the communication thread processes at most AMBatch (five)
	// active-message completions before giving the bulk queue a turn. Flood
	// both queues and verify bulk work interleaves rather than starving.
	eng, engines := harness(2, DefaultConfig())
	e := engines[1]
	var order []string
	for i := 0; i < 12; i++ {
		e.pushAM(handle{run: func() { order = append(order, "am") }})
	}
	for i := 0; i < 3; i++ {
		e.pushBulk(handle{run: func() { order = append(order, "bulk") }})
	}
	eng.Run()
	if len(order) != 15 {
		t.Fatalf("processed %d items", len(order))
	}
	// The first 5 must be AMs, then the bulk queue drains before the next
	// AM batch.
	for i := 0; i < 5; i++ {
		if order[i] != "am" {
			t.Fatalf("order %v: first batch not AMs", order)
		}
	}
	bulkIdx := -1
	for i, v := range order {
		if v == "bulk" {
			bulkIdx = i
			break
		}
	}
	if bulkIdx != 5 {
		t.Fatalf("order %v: bulk did not run after the first AM batch", order)
	}
}

func TestDeferredOperationsRetry(t *testing.T) {
	// An operation hitting ErrRetry lands on the communication thread's
	// deferred queue and retries until it succeeds (§5.3.3 delegation).
	eng, engines := harness(2, DefaultConfig())
	e := engines[0]
	tries := 0
	e.pushDeferred(1, func() error {
		tries++
		if tries < 3 {
			return lci.ErrRetry
		}
		return nil
	})
	eng.Run()
	if tries != 3 {
		t.Fatalf("deferred op tried %d times, want 3", tries)
	}
}

func TestInlineProgressSharesCommThread(t *testing.T) {
	eng, engines := harness(2, func() Config {
		c := DefaultConfig()
		c.InlineProgress = true
		return c
	}())
	e := engines[0]
	if e.ProgProc() != e.CommProc() {
		t.Fatal("inline progress must reuse the communication thread")
	}
	_ = eng
}

func TestDedicatedProgressThreadSeparate(t *testing.T) {
	_, engines := harness(2, DefaultConfig())
	if engines[0].ProgProc() == engines[0].CommProc() {
		t.Fatal("default configuration must dedicate a progress thread")
	}
}

func TestEagerPutDataRidesHandshake(t *testing.T) {
	// §5.3.3: payloads at or below EagerPutMax travel inside the handshake:
	// exactly one wire message per put (plus none for data), and the local
	// callback fires without waiting for a round trip.
	eng, engines := harness(2, DefaultConfig())
	src, dst := engines[0], engines[1]
	const doneTag core.Tag = 7
	got := 0
	for _, e := range engines {
		e.TagReg(doneTag, func(core.Engine, core.Tag, []byte, int) { got++ }, 64)
	}
	payload := []byte{1, 2, 3, 4}
	target := make([]byte, 4)
	lreg := src.MemReg(buf.FromBytes(payload))
	rreg := dst.MemReg(buf.FromBytes(target))
	src.Submit(0, func() {
		src.Put(core.PutArgs{LReg: lreg, RReg: rreg, Size: 4, Remote: 1, RTag: doneTag})
	})
	eng.Run()
	if got != 1 || target[3] != 4 {
		t.Fatalf("eager put failed: got=%d target=%v", got, target)
	}
	if src.Stats().PutsDone != 1 {
		t.Fatalf("stats %+v", src.Stats())
	}
}

// TestDeferredPutsStayFIFOUnderStarvation starves the LCI resources —
// a single Direct slot, a single send packet, or both — so that puts hit
// ErrRetry and land on the communication thread's deferred queue.
// Sustained starvation must drain that queue in FIFO order: no put dropped,
// none reordered, and no freshly issued operation overtaking an older
// deferral. A retry pass over a stuck queue must keep that order and
// allocate nothing: it reuses the queue's two buffers.
func TestDeferredPutsStayFIFOUnderStarvation(t *testing.T) {
	for _, c := range []struct {
		name                   string
		maxDirect, sendPackets int
	}{
		{"direct=1", 1, 0},
		{"packets=1", 0, 1},
		{"direct=1,packets=1", 1, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			lcfg := lci.DefaultConfig()
			if c.maxDirect > 0 {
				lcfg.MaxDirect = c.maxDirect
			}
			if c.sendPackets > 0 {
				lcfg.SendPackets = c.sendPackets
			}
			eng, engines := harnessLCI(2, DefaultConfig(), lcfg)
			src, dst := engines[0], engines[1]
			const nputs = 8
			const size = int64(9000) // > EagerPutMax: forces the rendezvous path
			const doneTag core.Tag = 9
			var order []int
			for _, e := range engines {
				e.TagReg(doneTag, func(_ core.Engine, _ core.Tag, data []byte, _ int) {
					order = append(order, int(data[0]))
				}, 8)
			}
			targets := make([][]byte, nputs)
			payloads := make([][]byte, nputs)
			for i := 0; i < nputs; i++ {
				payloads[i] = make([]byte, size)
				for j := range payloads[i] {
					payloads[i][j] = byte(i*37 + j)
				}
				targets[i] = make([]byte, size)
				lreg := src.MemReg(buf.FromBytes(payloads[i]))
				rreg := dst.MemReg(buf.FromBytes(targets[i]))
				i := i
				src.Submit(0, func() {
					src.Put(core.PutArgs{LReg: lreg, RReg: rreg, Size: size, Remote: 1,
						RTag: doneTag, RCBData: []byte{byte(i)}})
				})
			}
			eng.Run()
			if len(order) != nputs {
				t.Fatalf("%d of %d puts completed: %v", len(order), nputs, order)
			}
			for i, v := range order {
				if v != i {
					t.Fatalf("completion order %v is not FIFO", order)
				}
			}
			for i := range targets {
				if !bytes.Equal(targets[i], payloads[i]) {
					t.Fatalf("put %d payload corrupted", i)
				}
			}
			if src.Stats().Deferred == 0 && dst.Stats().Deferred == 0 {
				t.Fatal("LCI starvation never deferred an operation")
			}

			tried := make([]int, 0, 4*101) // AllocsPerRun makes 101 passes
			for i := 0; i < 4; i++ {
				i := i
				src.pushDeferred(1, func() error {
					tried = append(tried, i)
					return lci.ErrRetry
				})
			}
			if allocs := testing.AllocsPerRun(100, src.retryDeferred); allocs != 0 {
				t.Fatalf("%v allocs per retry pass, want 0", allocs)
			}
			for i, v := range tried {
				if v != i%4 {
					t.Fatalf("retry passes tried %v, want issue order each pass", tried)
				}
			}
		})
	}
}

// TestAMBurstCallbacksGetOwnPayload queues two waves of distinct active
// messages, each several AMBatch rounds long, behind a busy communication
// thread: the first wave is progressed, and its handles wait on the AM
// FIFO, while the second wave's sends go out and may reuse LCI packets.
// Each callback must still see exactly its own payload, because a handle
// holds its packet until the callback returns.
func TestAMBurstCallbacksGetOwnPayload(t *testing.T) {
	eng, engines := harness(2, DefaultConfig())
	const tag core.Tag = 5
	n := 3*DefaultConfig().AMBatch + 2
	want := func(i int) []byte { return bytes.Repeat([]byte{byte(i), 0xA5}, 40) }
	got := 0
	for _, e := range engines {
		e.TagReg(tag, func(_ core.Engine, _ core.Tag, data []byte, _ int) {
			if int(data[0]) != got || !bytes.Equal(data, want(got)) {
				t.Errorf("callback %d got payload %v", got, data)
			}
			got++
		}, 1<<10)
	}
	engines[1].Submit(100*sim.Microsecond, nil) // hold the receiver's comm thread
	wave := func(from int) {
		for i := from; i < from+n; i++ {
			engines[0].SendAM(tag, 1, want(i))
		}
	}
	wave(0)
	eng.After(30*sim.Microsecond, func() { wave(n) })
	eng.Run()
	if got != 2*n {
		t.Fatalf("%d of %d active messages delivered", got, 2*n)
	}
}

// TestEagerPutMaxMustFitBufferedMax pins New's fail-fast check at its
// boundary: the largest EagerPutMax whose handshake fits one Buffered
// message carries a put of that size inline, and one byte more is rejected
// at construction instead of panicking inside the first such put.
func TestEagerPutMaxMustFitBufferedMax(t *testing.T) {
	cfg := DefaultConfig()
	lcfg := lci.DefaultConfig()
	cfg.EagerPutMax = lcfg.BufferedMax - core.PutHeaderFixedBytes
	eng, engines := harnessLCI(2, cfg, lcfg)
	src, dst := engines[0], engines[1]
	const doneTag core.Tag = 7
	got := 0
	for _, e := range engines {
		e.TagReg(doneTag, func(core.Engine, core.Tag, []byte, int) { got++ }, 0)
	}
	payload := bytes.Repeat([]byte{3}, int(cfg.EagerPutMax))
	target := make([]byte, len(payload))
	lreg := src.MemReg(buf.FromBytes(payload))
	rreg := dst.MemReg(buf.FromBytes(target))
	src.Submit(0, func() {
		src.Put(core.PutArgs{LReg: lreg, RReg: rreg, Size: cfg.EagerPutMax, Remote: 1, RTag: doneTag})
	})
	eng.Run()
	if got != 1 || !bytes.Equal(target, payload) {
		t.Fatalf("largest eager put: %d completions, payload intact %v", got, bytes.Equal(target, payload))
	}

	cfg.EagerPutMax++
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an EagerPutMax whose handshake cannot fit a Buffered message")
		}
	}()
	harnessLCI(2, cfg, lcfg)
}
