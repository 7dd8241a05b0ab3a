// Package lcice is the LCI backend of the PaRSEC communication engine,
// implementing Section 5.3 of the paper:
//
//   - a dedicated progress thread calls LCI progress: it drains hardware
//     completion queues, matches direct traffic, answers rendezvous
//     handshakes, and runs LCI-level completion handlers. Active-message
//     callbacks therefore never block wire progress (§5.3.1);
//   - active messages go through a tag→callback hash table; receive buffers
//     are allocated dynamically by LCI at the destination, with no posted
//     receives and no message matching (§5.3.2);
//   - the put is a specialized handshake (bypassing the AM hash-table
//     lookup) followed by an LCI Direct transfer; sufficiently small data
//     rides inside the handshake itself, skipping the data transfer
//     entirely (§5.3.3);
//   - when the progress thread cannot post a matching Direct receive
//     (LCI back-pressure, ErrRetry), the post is delegated to the
//     communication thread rather than retried in the handler (§5.3.3);
//   - completions are consumed by the communication thread from two FIFO
//     queues — up to five active-message completions, then all bulk-data
//     completions, looping until both drain (§5.3.4).
package lcice

import (
	"errors"
	"fmt"

	"amtlci/internal/buf"
	"amtlci/internal/core"
	"amtlci/internal/lci"
	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

// Tag-space layout on the LCI endpoint: user AM tags map to themselves,
// the put handshake uses hsTag, and Direct data transfers draw from
// dataTagBase upward (Direct matching is a separate protocol path, but
// keeping the ranges disjoint makes traces readable).
const (
	hsTag       = -2
	dataTagBase = 1 << 24
	// inlineDataTag marks a handshake whose data arrived inside it.
	inlineDataTag = -1
)

// Config holds the backend's structural parameters.
type Config struct {
	// CommWake and ProgWake model the wake-up granularity of the
	// communication and progress threads.
	CommWake sim.Duration
	ProgWake sim.Duration
	// DispatchCost is the per-completion dispatch cost on the communication
	// thread (pop from FIFO, argument setup).
	DispatchCost sim.Duration
	// AMBatch bounds how many active-message completions are processed
	// before the bulk queue gets a turn (five in the paper, §5.3.4).
	AMBatch int
	// EagerPutMax is the largest put payload carried inside the handshake
	// (§5.3.3). It must leave room for the header within the LCI Buffered
	// limit.
	EagerPutMax int64
	// InlineProgress runs LCI progress on the communication thread instead
	// of a dedicated progress thread — an ablation that removes the
	// paper's key structural change (§5.3.1).
	InlineProgress bool

	// Metrics is the registry the engine registers its instruments in
	// (core.Stats counters, comm/progress-thread utilization, deferred and
	// FIFO queue depths). Nil gets a private registry; stack.Build shares
	// one across every layer.
	Metrics *metrics.Registry
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		CommWake:     150 * sim.Nanosecond,
		ProgWake:     80 * sim.Nanosecond,
		DispatchCost: 90 * sim.Nanosecond,
		AMBatch:      5,
		EagerPutMax:  8 << 10,
	}
}

// handle is a callback handle pushed to the shared FIFO queues (§5.3.2:
// "allocated from a memory pool and filled with information specific to the
// active message").
type handle struct {
	run func()
}

// Engine is the per-rank LCI communication engine.
type Engine struct {
	eng *sim.Engine
	rt  *lci.Runtime
	ep  *lci.Endpoint
	cfg Config

	comm *sim.Proc
	prog *sim.Proc

	tags *core.TagTable
	reg  *core.Registry

	amQ   []handle
	bulkQ []handle
	// deferred holds operations that hit ErrRetry and retry on the
	// communication thread (§5.3.3), in issue order.
	deferred []deferredOp

	drainScheduled bool
	progScheduled  bool
	nextDataTag    int32

	// Callbacks the engine schedules over and over, bound once in New.
	runProgressFn, drainFn, scheduleDrainFn func()
	// putSent completes a rendezvous put's Direct send (progress thread);
	// the request's user context is the put's local callback.
	putSent lci.Comp

	// Free lists of the per-message operation objects (ops.go).
	freeAMSends  []*amSend
	freeAMRecvs  []*amRecv
	freePuts     []*putSend
	freePutRecvs []*putRecv
	// spare is the deferred queue's second buffer: a drain pass collects
	// the deferrals issued during it here, then swaps.
	spare []deferredOp

	// core.Stats counters (metrics registry, layer "lcice").
	amsSent, amsDelivered    *metrics.Counter
	putsStarted, putsDone    *metrics.Counter
	putBytes, deferredEvents *metrics.Counter

	errFn  func(error)
	failed error
	// deadPeers holds ranks evicted after a PeerDeath verdict: traffic
	// toward them is dropped, arrivals from them ignored, while the engine
	// keeps serving the survivors.
	deadPeers map[int]bool
}

// deferredOp is one back-pressured operation awaiting retry; peer records
// the destination so a dead peer's operations can be purged.
type deferredOp struct {
	peer int
	fn   func() error
}

var _ core.Engine = (*Engine)(nil)

// New builds the engine for rank over the LCI runtime rt.
func New(eng *sim.Engine, rt *lci.Runtime, rank int, cfg Config) *Engine {
	if cfg.AMBatch <= 0 {
		panic("lcice: AMBatch must be positive")
	}
	if hs, max := core.PutHeaderFixedBytes+cfg.EagerPutMax, rt.Config().BufferedMax; hs > max {
		panic(fmt.Sprintf("lcice: EagerPutMax %d makes a %d-byte put handshake, over the LCI BufferedMax %d",
			cfg.EagerPutMax, hs, max))
	}
	mreg := cfg.Metrics
	if mreg == nil {
		mreg = metrics.New()
	}
	e := &Engine{
		eng:  eng,
		rt:   rt,
		ep:   rt.Endpoint(rank),
		cfg:  cfg,
		comm: sim.NewProc(eng),
		tags: core.NewTagTable(),
		reg:  core.NewRegistry(rank),

		amsSent:        mreg.Counter("lcice", "ams_sent", rank),
		amsDelivered:   mreg.Counter("lcice", "ams_delivered", rank),
		putsStarted:    mreg.Counter("lcice", "puts_started", rank),
		putsDone:       mreg.Counter("lcice", "puts_done", rank),
		putBytes:       mreg.Counter("lcice", "put_bytes", rank),
		deferredEvents: mreg.Counter("lcice", "deferred", rank),
	}
	e.runProgressFn, e.drainFn, e.scheduleDrainFn = e.runProgress, e.drain, e.scheduleDrain
	e.putSent = lci.Handler(func(r lci.Request) {
		// Only push the callback handle to the bulk FIFO (§5.3.3); a nil
		// callback still pays its dispatch turn.
		e.putsDone.Inc()
		localCB, _ := r.UserCtx.(func())
		e.pushBulk(handle{run: localCB})
	})
	e.comm.WakeLatency = cfg.CommWake
	if cfg.InlineProgress {
		e.prog = e.comm
	} else {
		e.prog = sim.NewProc(eng)
		e.prog.WakeLatency = cfg.ProgWake
	}
	mreg.Probe("lcice", "comm_busy", rank, true, func() float64 { return e.comm.BusyTime().Seconds() })
	mreg.Probe("lcice", "prog_busy", rank, true, func() float64 { return e.prog.BusyTime().Seconds() })
	mreg.Probe("lcice", "deferred_queue_depth", rank, false, func() float64 { return float64(len(e.deferred)) })
	mreg.Probe("lcice", "am_queue_depth", rank, false, func() float64 { return float64(len(e.amQ)) })
	mreg.Probe("lcice", "bulk_queue_depth", rank, false, func() float64 { return float64(len(e.bulkQ)) })
	e.ep.SetWake(e.scheduleProgress)
	e.ep.SetMsgComp(lci.Handler(e.onMsg))
	e.ep.SetErrHandler(func(peer int, err error) {
		werr := fmt.Errorf("lcice rank %d: %w", rank, err)
		var pd core.PeerDeath
		if errors.As(err, &pd) {
			e.evictPeer(pd.DeadPeer(), werr)
			return
		}
		e.fail(peer, werr)
	})
	return e
}

// Rank returns this engine's rank.
func (e *Engine) Rank() int { return e.ep.ID() }

// Size returns the job size.
func (e *Engine) Size() int { return e.rt.Size() }

// CommProc returns the communication thread.
func (e *Engine) CommProc() *sim.Proc { return e.comm }

// ProgProc returns the progress thread (the communication thread when
// InlineProgress is set).
func (e *Engine) ProgProc() *sim.Proc { return e.prog }

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

// OnError registers the failure handler; the latest registration replaces
// any earlier one, and a nil fn leaves the current handler in place (see
// core.Engine).
func (e *Engine) OnError(fn func(error)) {
	if fn != nil {
		e.errFn = fn
	}
}

// Err returns the first unrecoverable failure, or nil.
func (e *Engine) Err() error { return e.failed }

// notify delivers a failure to the registered handler; with none installed
// the failure panics — silence would be a hang.
func (e *Engine) notify(err error) {
	if e.errFn == nil {
		panic(err)
	}
	e.errFn(err)
}

// fail records the first unrecoverable failure and notifies the handler.
// Deferred operations headed for the offending peer are purged — they can
// never succeed and would otherwise keep the retry queue (and the
// safety-net timer) alive forever. peer < 0 means the failure is not
// attributable to one peer.
func (e *Engine) fail(peer int, err error) {
	if e.failed != nil {
		return
	}
	e.failed = err
	if peer >= 0 {
		e.purgeDeferred(peer)
	}
	e.notify(err)
}

// evictPeer handles a PeerDeath verdict: the dead rank's queued retries are
// purged and all future traffic to or from it is dropped, but the engine
// stays up for the survivors (so a recovery layer can re-map the dead
// rank's work).
func (e *Engine) evictPeer(peer int, err error) {
	if e.failed != nil || e.deadPeers[peer] {
		return
	}
	if e.deadPeers == nil {
		e.deadPeers = make(map[int]bool)
	}
	e.deadPeers[peer] = true
	e.purgeDeferred(peer)
	e.notify(err)
}

// purgeDeferred drops every queued retry headed for peer.
func (e *Engine) purgeDeferred(peer int) {
	kept := e.deferred[:0]
	for _, op := range e.deferred {
		if op.peer == peer {
			continue
		}
		kept = append(kept, op)
	}
	for i := len(kept); i < len(e.deferred); i++ {
		e.deferred[i] = deferredOp{}
	}
	e.deferred = kept
}

// attempt issues op toward peer, honoring back-pressure and the deferred
// queue's FIFO discipline: once one operation has been deferred, every
// later operation queues behind it instead of stealing the resources its
// retry is waiting for (the starvation the §5.3.3 delegation would
// otherwise allow). Safe because in-flight LCI operations complete without
// new engine submissions, so the queue head always eventually succeeds.
func (e *Engine) attempt(peer int, op func() error) {
	if e.failed != nil || e.deadPeers[peer] {
		return
	}
	if len(e.deferred) > 0 {
		e.deferredEvents.Inc()
		e.pushDeferred(peer, op)
		return
	}
	if err := op(); err != nil {
		if err == lci.ErrRetry {
			e.deferredEvents.Inc()
			e.pushDeferred(peer, op)
			return
		}
		e.fail(peer, fmt.Errorf("lcice rank %d: send to %d: %w", e.Rank(), peer, err))
	}
}

// MemReg registers b for remote puts.
func (e *Engine) MemReg(b buf.Buf) core.MemHandle { return e.reg.MemReg(b) }

// MemDereg releases a registration.
func (e *Engine) MemDereg(h core.MemHandle) { e.reg.MemDereg(h) }

// Lookup resolves a local registration.
func (e *Engine) Lookup(h core.MemHandle) buf.Buf { return e.reg.Lookup(h) }

// TagReg inserts the callback into the hash table (§5.3.2); nothing is
// posted — LCI allocates receive buffers dynamically.
func (e *Engine) TagReg(tag core.Tag, cb core.AMCallback, maxLen int64) {
	e.tags.Register(tag, cb, maxLen)
}

// Submit runs fn on the communication thread after charging cost.
func (e *Engine) Submit(cost sim.Duration, fn func()) { e.comm.Submit(cost, fn) }

// SendAM sends an active message using the Immediate or Buffered protocol
// depending on length (§5.3.2), from the communication thread.
func (e *Engine) SendAM(tag core.Tag, remote int, data []byte) {
	op := e.newAMSend(remote, int(tag), data, nil)
	e.Submit(e.rt.Config().SendCost(op.b.Size), op.run)
}

// SendAMMT sends an active message directly from a worker thread. LCI is
// designed for concurrent callers, so the only extra cost is an atomic
// packet reservation — no global lock (§6.4.3).
func (e *Engine) SendAMMT(worker *sim.Proc, tag core.Tag, remote int, data []byte, done func()) {
	op := e.newAMSend(remote, int(tag), data, done)
	cfg := e.rt.Config()
	worker.Submit(cfg.SendCost(op.b.Size)+cfg.MTSendCost, op.run)
}

func (e *Engine) eagerSend(remote, tag int, b buf.Buf) error {
	if b.Size <= e.rt.Config().ImmediateMax {
		return e.ep.Sends(remote, tag, b)
	}
	return e.ep.Sendm(remote, tag, b)
}

// Put starts the one-sided transfer with the §5.3.3 handshake emulation.
// Must run on the communication thread.
func (e *Engine) Put(a core.PutArgs) {
	if e.failed != nil || e.deadPeers[a.Remote] {
		return
	}
	e.putsStarted.Inc()
	e.putBytes.Add(uint64(a.Size))
	local := e.reg.Lookup(a.LReg).Slice(a.LDispl, a.Size)
	cfg := e.rt.Config()

	if a.Size <= e.cfg.EagerPutMax {
		// Eager-data optimization: the data rides inside the handshake and
		// the local completion fires as soon as the send is posted.
		op := e.newPutSend(a, local, inlineDataTag, 1)
		e.Submit(cfg.SendCost(int64(len(op.hdr))+a.Size), op.sendEager)
		return
	}

	e.nextDataTag++
	op := e.newPutSend(a, local, dataTagBase+int(e.nextDataTag), 2)
	e.Submit(cfg.SendCost(int64(len(op.hdr))), op.sendHandshake)
	e.Submit(cfg.PostCost, op.sendData)
}

func (e *Engine) finishEagerPut(localCB func()) {
	e.putsDone.Inc()
	if localCB != nil {
		e.comm.Submit(0, localCB)
	}
}

// onMsg is the LCI message handler, invoked on the progress thread for every
// dynamically-buffered arrival: user active messages and put handshakes.
func (e *Engine) onMsg(r lci.Request) {
	if r.Tag != hsTag {
		// User AM: take a callback handle and push it to the AM FIFO
		// (§5.3.2). The hash-table lookup happens here, on the progress
		// thread, so the communication thread only dispatches. The handle
		// holds r, and with it the LCI packet, until the callback returns.
		tag := core.Tag(r.Tag)
		cb, _ := e.tags.Lookup(tag)
		e.amsDelivered.Inc()
		e.pushAM(handle{run: e.newAMRecv(cb, tag, r).run})
		return
	}

	// Put handshake: specialized path bypassing the AM hash table (§5.3.3).
	// Everything needed later is copied out, so the packet goes straight
	// back. A handshake from an evicted peer is dropped — its data transfer
	// will never arrive (the fabric silenced the rank), so posting the
	// matching receive would dangle forever.
	defer e.ep.Free(r)
	if e.deadPeers[r.Rank] {
		return
	}
	h, err := core.UnmarshalPutHeader(r.Data.Bytes)
	if err != nil {
		e.fail(r.Rank, fmt.Errorf("lcice rank %d: bad put handshake from %d: %w", e.Rank(), r.Rank, err))
		return
	}
	op := e.newPutRecv(r.Rank, h)

	if h.DataTag == inlineDataTag {
		// Data arrived inside the handshake.
		buf.Copy(op.target, r.Extra)
		e.deliverRemoteCompletion(op)
		return
	}

	// §5.3.3: on back-pressure the progress thread must not spin or recurse
	// into progress; attempt delegates the post to the communication
	// thread's retry queue (and keeps it FIFO with earlier deferrals).
	e.attempt(op.src, op.postRecv)
}

// deliverRemoteCompletion pushes the remote-completion callback handle to
// the bulk FIFO for the communication thread.
func (e *Engine) deliverRemoteCompletion(op *putRecv) {
	op.cb, _ = e.tags.Lookup(op.rtag)
	e.pushBulk(handle{run: op.run})
}

func (e *Engine) pushAM(h handle) {
	e.amQ = append(e.amQ, h)
	e.scheduleDrain()
}

func (e *Engine) pushBulk(h handle) {
	e.bulkQ = append(e.bulkQ, h)
	e.scheduleDrain()
}

func (e *Engine) pushDeferred(peer int, fn func() error) {
	e.deferred = append(e.deferred, deferredOp{peer: peer, fn: fn})
	e.scheduleDrain()
}

// scheduleProgress arranges an LCI progress pass on the progress thread.
func (e *Engine) scheduleProgress() {
	if e.progScheduled {
		return
	}
	e.progScheduled = true
	e.prog.Submit(e.ep.ProgressCost(), e.runProgressFn)
}

func (e *Engine) runProgress() {
	e.progScheduled = false
	e.ep.Progress()
	if e.ep.StagedWork() {
		e.scheduleProgress()
	}
}

// scheduleDrain arranges a communication-thread drain pass.
func (e *Engine) scheduleDrain() {
	if e.drainScheduled {
		return
	}
	e.drainScheduled = true
	e.comm.Submit(0, e.drainFn)
}

// drain implements the §5.3.4 fairness loop: up to AMBatch active-message
// completions, then all bulk completions, repeating until both queues are
// empty. Retry-deferred operations are attempted between rounds.
func (e *Engine) drain() {
	e.drainScheduled = false

	n := len(e.amQ)
	if n > e.cfg.AMBatch {
		n = e.cfg.AMBatch
	}
	for _, h := range e.amQ[:n] {
		h := h
		e.comm.Submit(e.cfg.DispatchCost, h.run)
	}
	e.amQ = append(e.amQ[:0], e.amQ[n:]...)

	for _, h := range e.bulkQ {
		h := h
		e.comm.Submit(e.cfg.DispatchCost, h.run)
	}
	e.bulkQ = e.bulkQ[:0]

	e.retryDeferred()

	if len(e.amQ) > 0 || len(e.bulkQ) > 0 {
		// Loop: queue another pass behind the dispatched callbacks.
		e.scheduleDrain()
	} else if len(e.deferred) > 0 {
		// Nothing dispatchable but retries remain: try again shortly rather
		// than spinning (resources free when completions arrive, which
		// wakes us anyway; this is a safety net).
		e.eng.After(sim.Microsecond, e.scheduleDrainFn)
	}
}

// retryDeferred retries deferred operations in arrival order. A retried
// operation may itself defer follow-up work (pushDeferred during fn), and
// that new work must land BEHIND the still-unsatisfied retries: the pass
// compacts the failed retries in place while new deferrals collect in the
// spare buffer, then appends them, which keeps the queue FIFO by
// first-deferral time without allocating. A non-back-pressure error aborts.
func (e *Engine) retryDeferred() {
	pend := e.deferred
	e.deferred, e.spare = e.spare[:0], nil
	kept := pend[:0]
	for _, op := range pend {
		if e.failed != nil {
			break
		}
		if err := op.fn(); err != nil {
			if err == lci.ErrRetry {
				kept = append(kept, op)
			} else {
				e.fail(op.peer, fmt.Errorf("lcice rank %d: deferred send to %d: %w", e.Rank(), op.peer, err))
			}
		}
	}
	fresh := e.deferred
	if e.failed != nil {
		// The failure purged fresh; the unfinished snapshot is abandoned.
		clear(pend)
		e.spare = pend[:0]
		return
	}
	clear(pend[len(kept):])
	e.deferred = append(kept, fresh...)
	clear(fresh)
	e.spare = fresh[:0]
}
