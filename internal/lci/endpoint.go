package lci

import (
	"fmt"

	"amtlci/internal/buf"
	"amtlci/internal/fabric"
	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

// Runtime is an LCI deployment over a fabric: one Endpoint per rank.
type Runtime struct {
	dom sim.Domain
	fab fabric.Network
	cfg Config
	eps []*Endpoint
	reg *metrics.Registry
	// pools holds one set of free lists per shard of dom.
	pools []pool
}

// pool is one shard's free lists of packets and Direct ops, shared by the
// shard's endpoints. Sharing matters for memory: per-endpoint lists would
// each retain their endpoint's own peak, a shared one only the shard's peak
// concurrency — on the 256-rank HiCMA reference run, 255 packets instead
// of the 5275 that per-endpoint lists keep. Only the shard's goroutine
// touches its pool.
type pool struct {
	pkts []*packet
	ops  []*directOp
}

// NewRuntime attaches one Endpoint per fabric port. fab may be the raw
// fabric or a reliability layer; when it can report peer failures
// (fabric.ErrNotifier), those are forwarded to each endpoint's error
// handler.
func NewRuntime(dom sim.Domain, fab fabric.Network, cfg Config) *Runtime {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	rt := &Runtime{dom: dom, fab: fab, cfg: cfg, reg: reg, pools: make([]pool, dom.Shards())}
	rt.eps = make([]*Endpoint, fab.Ranks())
	for i := range rt.eps {
		ep := &Endpoint{
			rt: rt, me: i, pool: &rt.pools[dom.ShardOf(i)],
			sent:          reg.Counter("lci", "sent", i),
			received:      reg.Counter("lci", "received", i),
			retries:       reg.Counter("lci", "retries", i),
			progressCalls: reg.Counter("lci", "progress_calls", i),
			packets:       reg.Gauge("lci", "packets_in_flight", i),
			direct:        reg.Gauge("lci", "direct_in_flight", i),
		}
		ep.pktDone = func() { ep.stage(event{kind: kindPktDone}) }
		reg.Probe("lci", "cq_depth", i, false, func() float64 { return float64(len(ep.staged)) })
		rt.eps[i] = ep
		fab.SetHandler(i, ep.onArrival)
	}
	if en, ok := fab.(fabric.ErrNotifier); ok {
		for i := range rt.eps {
			ep := rt.eps[i]
			en.SetErrHandler(i, ep.deliverErr)
		}
	}
	return rt
}

// Endpoint returns rank i's endpoint.
func (rt *Runtime) Endpoint(i int) *Endpoint { return rt.eps[i] }

// Size returns the number of ranks.
func (rt *Runtime) Size() int { return len(rt.eps) }

// Config returns the runtime's parameters.
func (rt *Runtime) Config() Config { return rt.cfg }

// Metrics returns the registry the runtime's instruments live in.
func (rt *Runtime) Metrics() *metrics.Registry { return rt.reg }

type lciKind int8

const (
	kindMsg      lciKind = iota // immediate or buffered payload
	kindRTS                     // direct rendezvous request-to-send
	kindCTS                     // direct rendezvous clear-to-send
	kindData                    // direct payload
	kindSendDone                // local: direct send buffer drained
	kindPktDone                 // local: immediate/buffered packet released
)

// packet is one LCI wire message. It embeds the fabric.Message that carries
// it (Meta points back at the packet), so a send allocates nothing once the
// sender's shard pool is warm.
//
// A packet is taken from its sender's shard pool and released by the
// endpoint it was sent to, at the point its use ends: an RTS once its CTS is
// sent, a CTS once its Data is sent, a Data packet once its payload is
// copied out, and a message arrival when its consumer calls Free. Release
// returns the packet to the pool only when both ranks live on the same
// shard; a cross-shard packet is released on the destination shard, where
// touching the sender's pool would race, so it is left to the GC (fabric's
// xfer follows the same rule). remote caches that decision.
type packet struct {
	fabric.Message

	kind    lciKind
	tag     int
	size    int64 // payload bytes (RTS/CTS: the Direct transfer's size)
	payload buf.Buf
	extra   buf.Buf   // second iovec segment (Sendmx)
	sctx    *directOp // sender-side direct operation
	rctx    *directOp // receiver-side direct operation

	pool   *pool  // the sender's shard pool, which takes the packet back
	remote bool   // sender and destination on different shards
	gen    uint32 // bumped on every release; see Request.gen
	// Reused backing storage for the copies of payload and extra.
	pbytes, xbytes []byte
}

// directOp tracks one posted Direct send or receive. Both ends of an op's
// life run on its endpoint, which takes it from and returns it to the
// shard pool.
type directOp struct {
	ep      *Endpoint
	tag     int
	peer    int // AnyRank for wildcard receives
	b       buf.Buf
	comp    Comp
	userCtx any
	onTx    func() // Data egress done: stage the send completion; bound once
}

// event is one unit of staged Progress work: an arrival (p) or a local
// completion (kindSendDone with op, kindPktDone).
type event struct {
	kind lciKind
	p    *packet
	op   *directOp
}

// AnyRank matches a Direct receive against any peer.
const AnyRank = -1

// Endpoint is one rank's LCI context. All methods must run on the owning
// engine's goroutine.
type Endpoint struct {
	rt *Runtime
	me int

	// staged holds work awaiting Progress; Progress swaps it with spare so
	// neither slice is regrown in steady state.
	staged, spare []event

	// Receiver-side Direct state.
	postedRecv []*directOp
	pendingRTS []*packet // RTSes with no matching posted receive yet

	pool    *pool  // this rank's shard pool
	pktDone func() // OnTx of every eager packet; bound once

	// Resource accounting for back-pressure: packet-pool occupancy and
	// posted Direct operations, kept as gauges so occupancy and high-water
	// marks are observable (metrics registry, layer "lci").
	packets *metrics.Gauge
	direct  *metrics.Gauge

	// msgComp receives completions for Immediate/Buffered arrivals; buffers
	// are allocated dynamically, no receive needs to be posted (§5.2).
	msgComp Comp

	wake  func()
	errFn func(peer int, err error)

	// Counters for tests and experiments (metrics registry, layer "lci").
	sent, received, retries *metrics.Counter
	progressCalls           *metrics.Counter
}

// Sent counts messages this endpoint has sent (all protocols).
func (ep *Endpoint) Sent() uint64 { return ep.sent.Value() }

// Received counts payload deliveries at this endpoint.
func (ep *Endpoint) Received() uint64 { return ep.received.Value() }

// Retries counts ErrRetry back-pressure rejections.
func (ep *Endpoint) Retries() uint64 { return ep.retries.Value() }

// ID returns the endpoint's rank.
func (ep *Endpoint) ID() int { return ep.me }

// SetMsgComp installs the completion target for dynamically-allocated
// short/medium message arrivals. The consumer passes each such Request to
// Free once it is done with Data and Extra.
func (ep *Endpoint) SetMsgComp(c Comp) { ep.msgComp = c }

// SetWake installs a callback invoked when new progress work appears.
func (ep *Endpoint) SetWake(fn func()) { ep.wake = fn }

func (ep *Endpoint) notify() {
	if ep.wake != nil {
		ep.wake()
	}
}

// SetErrHandler installs the callback run when the transport declares a peer
// unreachable. Without one, the failure panics: an unnoticed dead peer
// otherwise turns into a silent hang.
func (ep *Endpoint) SetErrHandler(fn func(peer int, err error)) { ep.errFn = fn }

func (ep *Endpoint) deliverErr(peer int, err error) {
	if ep.errFn == nil {
		panic(err)
	}
	ep.errFn(peer, err)
}

func (ep *Endpoint) onArrival(m *fabric.Message) {
	p := m.Meta.(*packet)
	ep.stage(event{kind: p.kind, p: p})
}

func (ep *Endpoint) stage(ev event) {
	wasEmpty := len(ep.staged) == 0
	ep.staged = append(ep.staged, ev)
	if wasEmpty {
		ep.notify()
	}
}

// newPacket takes a packet from the pool and addresses it to dst. wire is
// the message's size on the wire.
func (ep *Endpoint) newPacket(kind lciKind, dst, tag int, size, wire int64) *packet {
	var p *packet
	if n := len(ep.pool.pkts); n > 0 {
		p = ep.pool.pkts[n-1]
		ep.pool.pkts[n-1] = nil
		ep.pool.pkts = ep.pool.pkts[:n-1]
	} else {
		p = &packet{pool: ep.pool}
	}
	p.Message = fabric.Message{Src: ep.me, Dst: dst, Size: wire, Meta: p}
	p.kind, p.tag, p.size = kind, tag, size
	p.remote = ep.rt.dom.ShardOf(ep.me) != ep.rt.dom.ShardOf(dst)
	return p
}

// release ends p's use (see packet). It runs on the destination's shard.
func (p *packet) release() {
	p.gen++
	p.Message = fabric.Message{}
	p.payload, p.extra = buf.Buf{}, buf.Buf{}
	p.sctx, p.rctx = nil, nil
	if !p.remote {
		p.pool.pkts = append(p.pool.pkts, p)
	}
}

// keep copies b into store, reusing its capacity, and returns the copy and
// the (possibly grown) store. Virtual buffers carry no bytes to copy.
func keep(b buf.Buf, store []byte) (buf.Buf, []byte) {
	if b.IsVirtual() {
		return b, store
	}
	if store == nil || cap(store) < len(b.Bytes) {
		store = make([]byte, len(b.Bytes))
	}
	store = store[:len(b.Bytes)]
	copy(store, b.Bytes)
	return buf.FromBytes(store), store
}

// Free hands a message arrival's packet back for reuse: the analogue of
// LCI_mbuffer_free. r must be a Request delivered to the SetMsgComp target;
// its Data and Extra must not be touched afterwards. An arrival nobody frees
// is reclaimed by the garbage collector instead. Freeing a Request twice, or
// freeing a Direct or send completion, panics: only a bug reaches either.
func (ep *Endpoint) Free(r Request) {
	p := r.pkt
	if p == nil {
		panic("lci: Free of a completion that holds no packet")
	}
	if p.gen != r.gen {
		panic("lci: Request freed twice")
	}
	if p.Dst != ep.me {
		panic(fmt.Sprintf("lci: rank %d freeing a packet delivered to rank %d", ep.me, p.Dst))
	}
	p.release()
}

// Sends transmits an Immediate message: at most ImmediateMax bytes, inline
// from the user buffer, fire-and-forget. The caller charges
// Config.SendCost(n).
func (ep *Endpoint) Sends(dst, tag int, b buf.Buf) error {
	return ep.eager("Sends", "immediate", ep.rt.cfg.ImmediateMax, dst, tag, b, buf.Buf{})
}

// Sendm transmits a Buffered message: at most BufferedMax bytes, copied into
// a registered packet. The caller charges Config.SendCost(n).
func (ep *Endpoint) Sendm(dst, tag int, b buf.Buf) error {
	return ep.eager("Sendm", "buffered", ep.rt.cfg.BufferedMax, dst, tag, b, buf.Buf{})
}

// Sendmx transmits a Buffered message with two segments — a header and an
// opaque extra segment — in one wire transfer (an iovec-style send). The
// PaRSEC LCI backend uses it to piggyback small put payloads on the
// rendezvous handshake (§5.3.3, "if the message data is sufficiently small,
// then it can be sent eagerly inside the handshake message"). The caller
// charges Config.SendCost(header.Size + extra.Size).
func (ep *Endpoint) Sendmx(dst, tag int, header, extra buf.Buf) error {
	return ep.eager("Sendmx", "buffered", ep.rt.cfg.BufferedMax, dst, tag, header, extra)
}

// eager is the one Immediate/Buffered send path: both segments are copied
// into a pooled packet, so the caller may reuse its buffers as
// soon as the call returns.
func (ep *Endpoint) eager(call, proto string, max int64, dst, tag int, header, extra buf.Buf) error {
	n := header.Size + extra.Size
	if n > max {
		panic(fmt.Sprintf("lci: %s payload %d exceeds %s max %d", call, n, proto, max))
	}
	if ep.packets.Value() >= int64(ep.rt.cfg.SendPackets) {
		ep.retries.Inc()
		return ErrRetry
	}
	ep.packets.Add(1)
	ep.sent.Inc()
	p := ep.newPacket(kindMsg, dst, tag, n, n+ep.rt.cfg.HeaderBytes)
	p.payload, p.pbytes = keep(header, p.pbytes)
	p.extra, p.xbytes = keep(extra, p.xbytes)
	p.OnTx = ep.pktDone
	ep.rt.fab.Send(&p.Message)
	return nil
}

// newOp takes a Direct op from the pool.
func (ep *Endpoint) newOp(tag, peer int, b buf.Buf, comp Comp, userCtx any) *directOp {
	var op *directOp
	if n := len(ep.pool.ops); n > 0 {
		op = ep.pool.ops[n-1]
		ep.pool.ops[n-1] = nil
		ep.pool.ops = ep.pool.ops[:n-1]
	} else {
		op = &directOp{}
		op.onTx = func() { op.ep.stage(event{kind: kindSendDone, op: op}) }
	}
	op.ep, op.tag, op.peer, op.b, op.comp, op.userCtx = ep, tag, peer, b, comp, userCtx
	return op
}

// finish retires op and returns its completion descriptor; the op goes back
// to the pool before the completion is delivered, so a handler that posts
// again reuses it.
func (ep *Endpoint) finish(op *directOp, rank int) (Comp, Request) {
	comp, r := op.comp, Request{Rank: rank, Tag: op.tag, Data: op.b, UserCtx: op.userCtx}
	op.b, op.comp, op.userCtx = buf.Buf{}, nil, nil
	ep.pool.ops = append(ep.pool.ops, op)
	return comp, r
}

// Sendd posts a Direct (RDMA rendezvous) send of any length. comp receives a
// completion when the source buffer may be reused. The caller charges
// Config.PostCost.
func (ep *Endpoint) Sendd(dst, tag int, b buf.Buf, comp Comp, userCtx any) error {
	if ep.direct.Value() >= int64(ep.rt.cfg.MaxDirect) {
		ep.retries.Inc()
		return ErrRetry
	}
	ep.direct.Add(1)
	ep.sent.Inc()
	p := ep.newPacket(kindRTS, dst, tag, b.Size, ep.rt.cfg.CtrlBytes)
	p.sctx = ep.newOp(tag, dst, b, comp, userCtx)
	ep.rt.fab.Send(&p.Message)
	return nil
}

// Recvd posts a Direct receive matching (src, tag); src may be AnyRank. comp
// receives a completion when the data has landed. The caller charges
// Config.PostCost. Recvd participates in back-pressure: with MaxDirect
// operations outstanding it returns ErrRetry, which the PaRSEC LCI backend
// handles by delegating the retry to the communication thread (§5.3.3).
func (ep *Endpoint) Recvd(src, tag int, b buf.Buf, comp Comp, userCtx any) error {
	if ep.direct.Value() >= int64(ep.rt.cfg.MaxDirect) {
		ep.retries.Inc()
		return ErrRetry
	}
	ep.direct.Add(1)
	op := ep.newOp(tag, src, b, comp, userCtx)
	// Match an already-arrived RTS first.
	for i, p := range ep.pendingRTS {
		if matchDirect(op, p) {
			ep.pendingRTS = append(ep.pendingRTS[:i], ep.pendingRTS[i+1:]...)
			ep.sendCTS(op, p)
			return nil
		}
	}
	ep.postedRecv = append(ep.postedRecv, op)
	return nil
}

func matchDirect(op *directOp, p *packet) bool {
	return (op.peer == AnyRank || op.peer == p.Src) && op.tag == p.tag
}

// sendCTS answers rts, which is released: the CTS carries everything the
// sender still needs.
func (ep *Endpoint) sendCTS(op *directOp, rts *packet) {
	p := ep.newPacket(kindCTS, rts.Src, rts.tag, rts.size, ep.rt.cfg.CtrlBytes)
	p.sctx, p.rctx = rts.sctx, op
	ep.rt.fab.Send(&p.Message)
	rts.release()
}

// ProgressCost prices the work currently staged for one Progress pass.
func (ep *Endpoint) ProgressCost() sim.Duration {
	d := ep.rt.cfg.ProgressBase
	for _, ev := range ep.staged {
		switch ev.kind {
		case kindMsg:
			d += ep.rt.cfg.PerCompletion + ep.rt.cfg.copyCost(ev.p.size)
		case kindRTS, kindCTS, kindData:
			d += ep.rt.cfg.MatchCost + ep.rt.cfg.PerCompletion
		case kindSendDone, kindPktDone:
			d += ep.rt.cfg.PerCompletion
		}
	}
	return d
}

// StagedWork reports whether Progress has anything to do.
func (ep *Endpoint) StagedWork() bool { return len(ep.staged) > 0 }

// Progress drains hardware completion queues: delivers dynamically-buffered
// message arrivals, matches Direct traffic, answers rendezvous RTSes,
// launches CTS-cleared data, and retires send completions. Completion
// handlers run in the caller's context — the paper's LCI backend dedicates a
// progress thread to exactly this call (§5.3.1). Callers charge
// ProgressCost (sampled immediately before).
func (ep *Endpoint) Progress() {
	ep.progressCalls.Inc()
	staged := ep.staged
	// Work staged during this pass lands in the spare slice. spare is nil
	// until the pass ends, so a re-entrant Progress cannot alias staged.
	ep.staged, ep.spare = ep.spare[:0], nil
	for _, ev := range staged {
		p := ev.p
		switch ev.kind {
		case kindMsg:
			ep.received.Inc()
			deliver(ep.msgComp, Request{Rank: p.Src, Tag: p.tag, Data: p.payload, Extra: p.extra, pkt: p, gen: p.gen})
		case kindRTS:
			if op := ep.findPostedRecv(p); op != nil {
				ep.sendCTS(op, p)
			} else {
				ep.pendingRTS = append(ep.pendingRTS, p)
			}
		case kindCTS:
			sctx := p.sctx
			d := ep.newPacket(kindData, p.Src, p.tag, sctx.b.Size, sctx.b.Size+ep.rt.cfg.HeaderBytes)
			d.payload, d.rctx = sctx.b, p.rctx
			d.OnTx = sctx.onTx
			ep.rt.fab.Send(&d.Message)
			p.release()
		case kindData:
			op := p.rctx
			ep.received.Inc()
			ep.direct.Add(-1)
			buf.Copy(op.b, p.payload)
			src := p.Src
			p.release()
			deliver(ep.finish(op, src))
		case kindSendDone:
			ep.direct.Add(-1)
			deliver(ep.finish(ev.op, ev.op.peer))
		case kindPktDone:
			ep.packets.Add(-1)
		}
	}
	clear(staged)
	ep.spare = staged[:0]
}

func (ep *Endpoint) findPostedRecv(p *packet) *directOp {
	for i, op := range ep.postedRecv {
		if matchDirect(op, p) {
			ep.postedRecv = append(ep.postedRecv[:i], ep.postedRecv[i+1:]...)
			return op
		}
	}
	return nil
}
