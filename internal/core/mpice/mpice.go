// Package mpice is the MPI backend of the PaRSEC communication engine,
// implementing Section 4.2 of the paper:
//
//   - active messages are received through a fixed number of persistent
//     receives per registered tag (five, §4.2.1), started with wildcard
//     source and re-enabled after each callback;
//   - active messages are sent with blocking eager MPI_Send;
//   - the one-sided put is emulated with two-sided traffic: an active-message
//     handshake tells the target where to receive and on what tag, then a
//     nonblocking send moves the data (§4.2.2);
//   - at most MaxTransfers data transfers are polled concurrently in a
//     global request array; surplus sends are deferred and surplus receives
//     are posted on dynamically allocated requests that are only promoted
//     into the array — and hence only observed — when space frees (§4.2.2);
//   - progress is MPI_Testsome over the whole array, with completion
//     callbacks executed on the same communication thread, so a long
//     callback stalls all further progress (§4.2.3, §4.3).
package mpice

import (
	"errors"
	"fmt"

	"amtlci/internal/buf"
	"amtlci/internal/core"
	"amtlci/internal/metrics"
	"amtlci/internal/mpi"
	"amtlci/internal/sim"
)

// handshakeTag is the engine-internal active-message tag used for put
// handshakes. It occupies persistent-receive slots like any registered tag.
const handshakeTag core.Tag = 0x7FFF0000

// dataTagBase starts the tag range used for put data transfers, disjoint
// from active-message tags.
const dataTagBase = 1 << 24

// Config holds the backend's structural parameters (the values in the paper
// are the defaults; sweeping them is the point of the ablation benches).
type Config struct {
	// PersistentPerTag is the number of persistent receives pre-posted per
	// registered active-message tag.
	PersistentPerTag int
	// MaxTransfers caps concurrently polled data transfers (sends plus
	// receives) in the global request array.
	MaxTransfers int
	// WakeLatency models how long the communication thread takes to notice
	// new work when idle.
	WakeLatency sim.Duration
	// DispatchCost is the fixed cost of dispatching one completion callback
	// (fetching it from the parallel array, argument setup).
	DispatchCost sim.Duration
	// MaxAMLen bounds active-message payloads (buffer size for persistent
	// receives when the caller registers with maxLen 0).
	MaxAMLen int64

	// Metrics is the registry the engine registers its instruments in
	// (core.Stats counters, comm-thread utilization, deferred-queue and
	// transfer-array depth, progress passes). Nil gets a private registry;
	// stack.Build shares one across every layer.
	Metrics *metrics.Registry
}

// DefaultConfig returns the paper's configuration: 5 persistent receives per
// tag and 30 concurrent transfers.
func DefaultConfig() Config {
	return Config{
		PersistentPerTag: 5,
		MaxTransfers:     30,
		WakeLatency:      150 * sim.Nanosecond,
		DispatchCost:     400 * sim.Nanosecond,
		MaxAMLen:         8 << 10,
	}
}

type amSlot struct {
	tag core.Tag
	cb  core.AMCallback
	req *mpi.Request
	b   []byte
}

type xferSlot struct {
	req    *mpi.Request
	done   bool
	isSend bool
	// Send-side: the put's local completion callback.
	// Recv-side: remote-completion dispatch arguments.
	localCB func()
	rtag    core.Tag
	rcbData []byte
	src     int
	dst     int // send-side destination, for dead-peer eviction
	size    int64
}

type pendingKind int8

const (
	pendingSend pendingKind = iota
	pendingPromote
)

type pendingOp struct {
	kind pendingKind
	// pendingSend: everything needed to post the data Isend.
	data    buf.Buf
	dst     int
	dataTag int
	localCB func()
	size    int64
	// pendingPromote: the already-posted dynamic receive to promote.
	slot *xferSlot
}

// Engine is the per-rank MPI communication engine.
type Engine struct {
	eng  *sim.Engine
	w    *mpi.World
	rank *mpi.Rank
	cfg  Config
	comm *sim.Proc

	tags *core.TagTable
	reg  *core.Registry

	amSlots []*amSlot
	xfer    []*xferSlot
	pending []pendingOp

	reqScratch  []*mpi.Request
	slotScratch []any // parallel to reqScratch: *amSlot or *xferSlot

	progressScheduled bool
	nextDataTag       int32

	// core.Stats counters (metrics registry, layer "mpice").
	amsSent, amsDelivered    *metrics.Counter
	putsStarted, putsDone    *metrics.Counter
	putBytes, deferredEvents *metrics.Counter
	progressPasses           *metrics.Counter

	errFn     func(error)
	failed    error
	deadPeers map[int]bool
}

var _ core.Engine = (*Engine)(nil)

// New builds the engine for rank over world w. The engine installs itself as
// the rank's wake target; one engine per rank.
func New(eng *sim.Engine, w *mpi.World, rank int, cfg Config) *Engine {
	if cfg.PersistentPerTag <= 0 || cfg.MaxTransfers <= 0 {
		panic("mpice: PersistentPerTag and MaxTransfers must be positive")
	}
	mreg := cfg.Metrics
	if mreg == nil {
		mreg = metrics.New()
	}
	e := &Engine{
		eng:  eng,
		w:    w,
		rank: w.Rank(rank),
		cfg:  cfg,
		comm: sim.NewProc(eng),
		tags: core.NewTagTable(),
		reg:  core.NewRegistry(rank),

		amsSent:        mreg.Counter("mpice", "ams_sent", rank),
		amsDelivered:   mreg.Counter("mpice", "ams_delivered", rank),
		putsStarted:    mreg.Counter("mpice", "puts_started", rank),
		putsDone:       mreg.Counter("mpice", "puts_done", rank),
		putBytes:       mreg.Counter("mpice", "put_bytes", rank),
		deferredEvents: mreg.Counter("mpice", "deferred", rank),
		progressPasses: mreg.Counter("mpice", "progress_passes", rank),
	}
	mreg.Probe("mpice", "comm_busy", rank, true, func() float64 { return e.comm.BusyTime().Seconds() })
	mreg.Probe("mpice", "deferred_queue_depth", rank, false, func() float64 { return float64(len(e.pending)) })
	mreg.Probe("mpice", "xfer_depth", rank, false, func() float64 { return float64(len(e.xfer)) })
	e.comm.WakeLatency = cfg.WakeLatency
	e.rank.SetWake(e.schedule)
	e.rank.SetErrHandler(func(peer int, err error) {
		werr := fmt.Errorf("mpice rank %d: %w", rank, err)
		var pd core.PeerDeath
		if errors.As(err, &pd) {
			e.evictPeer(pd.DeadPeer(), werr)
			return
		}
		e.fail(peer, werr)
	})
	// The engine registers its put handshake like any other active message
	// (§4.2.2: "The origin process of the put sends an active message...").
	e.TagReg(handshakeTag, e.onHandshake, 0)
	return e
}

// Rank returns this engine's rank.
func (e *Engine) Rank() int { return e.rank.ID() }

// Size returns the job size.
func (e *Engine) Size() int { return e.w.Size() }

// CommProc returns the communication thread.
func (e *Engine) CommProc() *sim.Proc { return e.comm }

// Stats returns activity counters, rebuilt from the metrics registry.
func (e *Engine) Stats() core.Stats {
	return core.Stats{
		AMsSent:      e.amsSent.Value(),
		AMsDelivered: e.amsDelivered.Value(),
		PutsStarted:  e.putsStarted.Value(),
		PutsDone:     e.putsDone.Value(),
		PutBytes:     e.putBytes.Value(),
		Deferred:     e.deferredEvents.Value(),
	}
}

// OnError registers the failure handler; the latest registration wins and a
// nil fn is ignored (core.Engine semantics).
func (e *Engine) OnError(fn func(error)) {
	if fn != nil {
		e.errFn = fn
	}
}

// Err returns the first unrecoverable failure, or nil.
func (e *Engine) Err() error { return e.failed }

// notify hands err to the registered handler, or panics without one —
// silence would be a hang.
func (e *Engine) notify(err error) {
	if e.errFn == nil {
		panic(err)
	}
	e.errFn(err)
}

// fail records the first unrecoverable failure and notifies the handler.
// Deferred sends headed for the dead peer are purged so the refill loop does
// not keep feeding traffic into a black hole; peer < 0 means the failure is
// not attributable to one peer.
func (e *Engine) fail(peer int, err error) {
	if e.failed != nil {
		return
	}
	e.failed = err
	if peer >= 0 {
		e.purgePending(peer)
	}
	e.notify(err)
}

// evictPeer handles a whole-rank death verdict (core.PeerDeath): traffic
// toward the dead peer is dropped from now on and every in-flight transfer
// involving it is abandoned, but the engine keeps serving the survivors —
// it does NOT enter the failed state. The registered handler still hears
// about the death so a recovery layer can re-map the dead rank's work.
func (e *Engine) evictPeer(peer int, err error) {
	if e.failed != nil || e.deadPeers[peer] {
		return
	}
	if e.deadPeers == nil {
		e.deadPeers = make(map[int]bool)
	}
	e.deadPeers[peer] = true
	e.purgePending(peer)
	// Abandon global-array transfers involving the peer: a send's data would
	// vanish on the wire; a receive's data will never arrive. Marking them
	// done frees their slots at the next compaction, and their completion
	// callbacks never run (that state belongs to the aborted exchange).
	purged := false
	for _, s := range e.xfer {
		if s.done {
			continue
		}
		if (s.isSend && s.dst == peer) || (!s.isSend && s.src == peer) {
			s.done = true
			purged = true
		}
	}
	if purged {
		e.compact()
		e.refill()
	}
	e.schedule()
	e.notify(err)
}

// purgePending drops deferred operations involving peer: sends toward it
// and promotions of receives posted from it.
func (e *Engine) purgePending(peer int) {
	kept := e.pending[:0]
	for _, op := range e.pending {
		switch {
		case op.kind == pendingSend && op.dst == peer:
			continue
		case op.kind == pendingPromote && op.slot.src == peer:
			continue
		}
		kept = append(kept, op)
	}
	for i := len(kept); i < len(e.pending); i++ {
		e.pending[i] = pendingOp{}
	}
	e.pending = kept
}

// MemReg registers b for remote puts.
func (e *Engine) MemReg(b buf.Buf) core.MemHandle { return e.reg.MemReg(b) }

// MemDereg releases a registration.
func (e *Engine) MemDereg(h core.MemHandle) { e.reg.MemDereg(h) }

// Lookup resolves a local registration.
func (e *Engine) Lookup(h core.MemHandle) buf.Buf { return e.reg.Lookup(h) }

// TagReg registers an active-message callback and pre-posts its persistent
// receives (§4.2.1).
func (e *Engine) TagReg(tag core.Tag, cb core.AMCallback, maxLen int64) {
	if maxLen <= 0 {
		maxLen = e.cfg.MaxAMLen
	}
	e.tags.Register(tag, cb, maxLen)
	for i := 0; i < e.cfg.PersistentPerTag; i++ {
		s := &amSlot{tag: tag, cb: cb, b: make([]byte, maxLen)}
		s.req = e.rank.RecvInit(buf.FromBytes(s.b), mpi.AnySource, int(tag))
		e.rank.Start(s.req)
		e.amSlots = append(e.amSlots, s)
	}
}

// SendAM sends an eager active message from the communication thread
// (blocking MPI_Send; §4.2.1). data is consumed by the call.
func (e *Engine) SendAM(tag core.Tag, remote int, data []byte) {
	b := buf.FromBytes(data)
	e.Submit(e.w.Config().SendCost(b.Size), func() {
		if e.failed != nil || e.deadPeers[remote] {
			return
		}
		e.rank.Send(b, remote, int(tag))
		e.amsSent.Inc()
	})
}

// SendAMMT sends an active message from a worker thread. The call serializes
// through the MPI global lock (MPI_THREAD_MULTIPLE), which is why the paper
// finds multithreaded sends "generally neutral or negatively impacted" on
// the MPI backend (§6.4.3).
func (e *Engine) SendAMMT(worker *sim.Proc, tag core.Tag, remote int, data []byte, done func()) {
	b := buf.FromBytes(data)
	e.rank.LockedSubmit(e.w.Config().SendCost(b.Size), func() {
		if e.failed != nil || e.deadPeers[remote] {
			if done != nil {
				worker.Submit(0, done)
			}
			return
		}
		e.rank.Send(b, remote, int(tag))
		e.amsSent.Inc()
		if done != nil {
			worker.Submit(0, done)
		}
	})
	e.schedule()
}

// Submit runs fn on the communication thread after charging cost.
func (e *Engine) Submit(cost sim.Duration, fn func()) { e.comm.Submit(cost, fn) }

// Put starts the emulated one-sided transfer (§4.2.2). Must run on the
// communication thread.
func (e *Engine) Put(a core.PutArgs) {
	if e.failed != nil || e.deadPeers[a.Remote] {
		return
	}
	e.putsStarted.Inc()
	e.putBytes.Add(uint64(a.Size))
	local := e.reg.Lookup(a.LReg).Slice(a.LDispl, a.Size)

	e.nextDataTag++
	dataTag := dataTagBase + int(e.nextDataTag)

	hdr := core.PutHeader{
		RReg: a.RReg, RDispl: a.RDispl, Size: a.Size,
		DataTag: int32(dataTag), RTag: a.RTag, RCBData: a.RCBData,
	}.Marshal()
	e.SendAM(handshakeTag, a.Remote, hdr)

	if len(e.xfer) < e.cfg.MaxTransfers {
		e.postDataSend(local, a.Remote, dataTag, a.LocalCB, a.Size)
	} else {
		// §4.2.2: insufficient space in the global array defers the send.
		e.deferredEvents.Inc()
		e.pending = append(e.pending, pendingOp{
			kind: pendingSend, data: local, dst: a.Remote, dataTag: dataTag,
			localCB: a.LocalCB, size: a.Size,
		})
	}
	e.schedule()
}

func (e *Engine) postDataSend(data buf.Buf, dst, dataTag int, localCB func(), size int64) {
	// Reserve the array slot synchronously so concurrent refills cannot
	// overshoot MaxTransfers; the Isend itself is charged to the thread.
	slot := &xferSlot{isSend: true, localCB: localCB, dst: dst, size: size}
	e.xfer = append(e.xfer, slot)
	e.Submit(e.w.Config().SendCost(size), func() {
		if slot.done {
			// Purged by a dead-peer eviction before the Isend was posted.
			return
		}
		slot.req = e.rank.Isend(data, dst, dataTag)
		e.schedule()
	})
}

// onHandshake is the handshake AM callback at the put target: it posts the
// matching receive, into the global array if there is room and onto a
// dynamically allocated request otherwise (§4.2.2).
func (e *Engine) onHandshake(_ core.Engine, _ core.Tag, data []byte, src int) {
	if e.deadPeers[src] {
		// A handshake that was already in flight when its sender was
		// declared dead; the data will never follow.
		return
	}
	h, err := core.UnmarshalPutHeader(data)
	if err != nil {
		// Handshakes only ever come from a peer engine, so a malformed one
		// means that peer is broken — abort the graph, don't crash the rank.
		e.fail(src, fmt.Errorf("mpice rank %d: bad put handshake from %d: %w", e.Rank(), src, err))
		return
	}
	target := e.reg.Lookup(h.RReg).Slice(h.RDispl, h.Size)
	rcb := append([]byte(nil), h.RCBData...)
	e.Submit(e.w.Config().RecvCost(h.Size), func() {
		req := e.rank.Irecv(target, src, int(h.DataTag))
		slot := &xferSlot{req: req, rtag: h.RTag, rcbData: rcb, src: src, size: h.Size}
		if len(e.xfer) < e.cfg.MaxTransfers {
			e.xfer = append(e.xfer, slot)
		} else {
			// Posted but unpolled until promoted (§4.2.2).
			e.deferredEvents.Inc()
			e.pending = append(e.pending, pendingOp{kind: pendingPromote, slot: slot})
		}
		e.schedule()
	})
}

// schedule arranges one progress pass on the communication thread if none is
// queued. It is the backend's analogue of the §4.2.3 progress loop: each
// pass charges the Testsome cost for the whole global array plus the staged
// matching work, then collects and dispatches completions.
func (e *Engine) schedule() {
	if e.progressScheduled {
		return
	}
	e.progressScheduled = true
	nreq := len(e.amSlots) + len(e.xfer)
	cost := e.rank.ProgressCost() + e.w.Config().TestCost(nreq)
	e.comm.Submit(cost, e.runPass)
}

func (e *Engine) runPass() {
	e.progressScheduled = false
	e.progressPasses.Inc()

	// Assemble the global array: persistent AM requests first, then data
	// transfers ("of length 5 x Nam + 30", §4.2.3).
	e.reqScratch = e.reqScratch[:0]
	e.slotScratch = e.slotScratch[:0]
	for _, s := range e.amSlots {
		e.reqScratch = append(e.reqScratch, s.req)
		e.slotScratch = append(e.slotScratch, s)
	}
	for _, s := range e.xfer {
		e.reqScratch = append(e.reqScratch, s.req)
		e.slotScratch = append(e.slotScratch, s)
	}

	idxs := e.rank.Testsome(e.reqScratch)
	for _, i := range idxs {
		switch s := e.slotScratch[i].(type) {
		case *amSlot:
			e.dispatchAM(s)
		case *xferSlot:
			if !s.done { // eviction may have abandoned the slot mid-pass
				e.completeXfer(s)
			}
		}
	}
	if len(idxs) > 0 {
		// Compact the array (free entries at the back) and fill freed space
		// from the deferred FIFO.
		e.compact()
		e.refill()
		// "If no communications were completed ... the progress function
		// returns; otherwise, it repeats" (§4.2.3).
		e.schedule()
	}
}

func (e *Engine) dispatchAM(s *amSlot) {
	size := s.req.Status.Size
	src := s.req.Status.Source
	payload := s.b[:size]
	e.amsDelivered.Inc()
	// The callback and the persistent-receive re-arm both execute on the
	// communication thread; while they run, no Testsome happens — the
	// §4.3 head-of-line blocking.
	e.comm.Submit(e.cfg.DispatchCost, func() {
		s.cb(e, s.tag, payload, src)
		e.comm.Submit(e.w.Config().PostCost, func() {
			e.rank.Start(s.req)
			e.schedule()
		})
	})
}

func (e *Engine) completeXfer(s *xferSlot) {
	s.done = true // mark for compaction
	if s.isSend {
		e.putsDone.Inc()
		if s.localCB != nil {
			e.comm.Submit(e.cfg.DispatchCost, s.localCB)
		}
		return
	}
	// Data landed: fire the remote completion callback registered for RTag.
	cb, _ := e.tags.Lookup(s.rtag)
	e.comm.Submit(e.cfg.DispatchCost, func() {
		cb(e, s.rtag, s.rcbData, s.src)
	})
}

func (e *Engine) compact() {
	out := e.xfer[:0]
	for _, s := range e.xfer {
		if !s.done {
			out = append(out, s)
		}
	}
	for i := len(out); i < len(e.xfer); i++ {
		e.xfer[i] = nil
	}
	e.xfer = out
}

func (e *Engine) refill() {
	for len(e.pending) > 0 && len(e.xfer) < e.cfg.MaxTransfers {
		op := e.pending[0]
		copy(e.pending, e.pending[1:])
		e.pending = e.pending[:len(e.pending)-1]
		switch op.kind {
		case pendingSend:
			e.postDataSend(op.data, op.dst, op.dataTag, op.localCB, op.size)
		case pendingPromote:
			e.xfer = append(e.xfer, op.slot)
		default:
			panic(fmt.Sprintf("mpice: unknown pending op %d", op.kind))
		}
	}
}
