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
	rt := &Runtime{dom: dom, fab: fab, cfg: cfg, reg: reg}
	rt.eps = make([]*Endpoint, fab.Ranks())
	for i := range rt.eps {
		ep := &Endpoint{
			rt: rt, me: i,
			sent:          reg.Counter("lci", "sent", i),
			received:      reg.Counter("lci", "received", i),
			retries:       reg.Counter("lci", "retries", i),
			progressCalls: reg.Counter("lci", "progress_calls", i),
			packets:       reg.Gauge("lci", "packets_in_flight", i),
			direct:        reg.Gauge("lci", "direct_in_flight", i),
		}
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

type packet struct {
	kind    lciKind
	src     int
	tag     int
	size    int64
	payload buf.Buf
	extra   buf.Buf   // second iovec segment (Sendmx)
	sctx    *directOp // sender-side direct operation
	rctx    *directOp // receiver-side direct operation
}

// directOp tracks one posted Direct send or receive.
type directOp struct {
	ep      *Endpoint
	tag     int
	peer    int // AnyRank for wildcard receives
	b       buf.Buf
	comp    Comp
	userCtx any
}

// AnyRank matches a Direct receive against any peer.
const AnyRank = -1

// Endpoint is one rank's LCI context. All methods must run on the owning
// engine's goroutine.
type Endpoint struct {
	rt *Runtime
	me int

	staged []*packet // arrivals awaiting Progress

	// Receiver-side Direct state.
	postedRecv []*directOp
	pendingRTS []*packet // RTSes with no matching posted receive yet

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
// short/medium message arrivals.
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

func (ep *Endpoint) onArrival(m *fabric.Message) { ep.stage(m.Meta.(*packet)) }

func (ep *Endpoint) stage(p *packet) {
	wasEmpty := len(ep.staged) == 0
	ep.staged = append(ep.staged, p)
	if wasEmpty {
		ep.notify()
	}
}

// Sends transmits an Immediate message: at most ImmediateMax bytes, inline
// from the user buffer, fire-and-forget. The caller charges
// Config.SendCost(n).
func (ep *Endpoint) Sends(dst, tag int, b buf.Buf) error {
	if b.Size > ep.rt.cfg.ImmediateMax {
		panic(fmt.Sprintf("lci: Sends payload %d exceeds immediate max %d", b.Size, ep.rt.cfg.ImmediateMax))
	}
	return ep.eagerSend(dst, tag, b)
}

// Sendm transmits a Buffered message: at most BufferedMax bytes, copied into
// a registered packet. The caller charges Config.SendCost(n).
func (ep *Endpoint) Sendm(dst, tag int, b buf.Buf) error {
	if b.Size > ep.rt.cfg.BufferedMax {
		panic(fmt.Sprintf("lci: Sendm payload %d exceeds buffered max %d", b.Size, ep.rt.cfg.BufferedMax))
	}
	return ep.eagerSend(dst, tag, b)
}

// Sendmx transmits a Buffered message with two segments — a header and an
// opaque extra segment — in one wire transfer (an iovec-style send). The
// PaRSEC LCI backend uses it to piggyback small put payloads on the
// rendezvous handshake (§5.3.3, "if the message data is sufficiently small,
// then it can be sent eagerly inside the handshake message"). The caller
// charges Config.SendCost(header.Size + extra.Size).
func (ep *Endpoint) Sendmx(dst, tag int, header, extra buf.Buf) error {
	if header.Size+extra.Size > ep.rt.cfg.BufferedMax {
		panic(fmt.Sprintf("lci: Sendmx payload %d exceeds buffered max %d",
			header.Size+extra.Size, ep.rt.cfg.BufferedMax))
	}
	if ep.packets.Value() >= int64(ep.rt.cfg.SendPackets) {
		ep.retries.Inc()
		return ErrRetry
	}
	ep.packets.Add(1)
	ep.sent.Inc()
	ep.rt.fab.Send(&fabric.Message{
		Src: ep.me, Dst: dst, Size: header.Size + extra.Size + ep.rt.cfg.HeaderBytes,
		Meta: &packet{kind: kindMsg, src: ep.me, tag: tag, size: header.Size + extra.Size,
			payload: snapshot(header), extra: snapshot(extra)},
		OnTx: func() { ep.stage(&packet{kind: kindPktDone}) },
	})
	return nil
}

func snapshot(b buf.Buf) buf.Buf {
	if b.IsVirtual() {
		return b
	}
	c := make([]byte, b.Size)
	copy(c, b.Bytes)
	return buf.FromBytes(c)
}

func (ep *Endpoint) eagerSend(dst, tag int, b buf.Buf) error {
	if ep.packets.Value() >= int64(ep.rt.cfg.SendPackets) {
		ep.retries.Inc()
		return ErrRetry
	}
	ep.packets.Add(1)
	ep.sent.Inc()
	ep.rt.fab.Send(&fabric.Message{
		Src: ep.me, Dst: dst, Size: b.Size + ep.rt.cfg.HeaderBytes,
		Meta: &packet{kind: kindMsg, src: ep.me, tag: tag, size: b.Size, payload: snapshot(b)},
		OnTx: func() { ep.stage(&packet{kind: kindPktDone}) },
	})
	return nil
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
	op := &directOp{ep: ep, tag: tag, peer: dst, b: b, comp: comp, userCtx: userCtx}
	ep.rt.fab.Send(&fabric.Message{
		Src: ep.me, Dst: dst, Size: ep.rt.cfg.CtrlBytes,
		Meta: &packet{kind: kindRTS, src: ep.me, tag: tag, size: b.Size, sctx: op},
	})
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
	op := &directOp{ep: ep, tag: tag, peer: src, b: b, comp: comp, userCtx: userCtx}
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
	return (op.peer == AnyRank || op.peer == p.src) && op.tag == p.tag
}

func (ep *Endpoint) sendCTS(op *directOp, rts *packet) {
	ep.rt.fab.Send(&fabric.Message{
		Src: ep.me, Dst: rts.src, Size: ep.rt.cfg.CtrlBytes,
		Meta: &packet{kind: kindCTS, src: ep.me, tag: rts.tag, size: rts.size, sctx: rts.sctx, rctx: op},
	})
}

// ProgressCost prices the work currently staged for one Progress pass.
func (ep *Endpoint) ProgressCost() sim.Duration {
	d := ep.rt.cfg.ProgressBase
	for _, p := range ep.staged {
		switch p.kind {
		case kindMsg:
			d += ep.rt.cfg.PerCompletion + ep.rt.cfg.copyCost(p.size)
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
	ep.staged = nil
	for _, p := range staged {
		switch p.kind {
		case kindMsg:
			ep.received.Inc()
			deliver(ep.msgComp, Request{Rank: p.src, Tag: p.tag, Data: p.payload, Extra: p.extra})
		case kindRTS:
			if op := ep.findPostedRecv(p); op != nil {
				ep.sendCTS(op, p)
			} else {
				ep.pendingRTS = append(ep.pendingRTS, p)
			}
		case kindCTS:
			sctx := p.sctx
			ep.rt.fab.Send(&fabric.Message{
				Src: ep.me, Dst: p.src, Size: sctx.b.Size + ep.rt.cfg.HeaderBytes,
				Meta: &packet{kind: kindData, src: ep.me, tag: p.tag, size: sctx.b.Size, payload: sctx.b, rctx: p.rctx},
				OnTx: func() { ep.stage(&packet{kind: kindSendDone, sctx: sctx}) },
			})
		case kindData:
			op := p.rctx
			ep.received.Inc()
			ep.direct.Add(-1)
			buf.Copy(op.b, p.payload)
			deliver(op.comp, Request{Rank: p.src, Tag: p.tag, Data: op.b, UserCtx: op.userCtx})
		case kindSendDone:
			op := p.sctx
			ep.direct.Add(-1)
			deliver(op.comp, Request{Rank: op.peer, Tag: op.tag, Data: op.b, UserCtx: op.userCtx})
		case kindPktDone:
			ep.packets.Add(-1)
		}
	}
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
