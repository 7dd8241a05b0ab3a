package mpi

import (
	"amtlci/internal/buf"
	"amtlci/internal/fabric"
	"amtlci/internal/sim"
)

// clonePayload snapshots a real payload so the sender may reuse its buffer
// (eager semantics); virtual payloads need no snapshot.
func clonePayload(b buf.Buf) buf.Buf {
	if b.IsVirtual() {
		return b
	}
	c := make([]byte, b.Size)
	copy(c, b.Bytes)
	return buf.FromBytes(c)
}

// Isend starts a nonblocking send of b to dst with the given tag and returns
// its request. Eager-sized payloads are buffered and the request completes
// immediately (the wire transfer proceeds in the background); larger
// payloads follow the rendezvous protocol and complete when the NIC has
// drained the source buffer. The caller charges Config.SendCost.
func (r *Rank) Isend(b buf.Buf, dst, tag int) *Request {
	q := &Request{r: r, kind: reqSend, active: true, dst: dst, tag: tag, size: b.Size, b: b}
	r.sent.Inc()
	if b.Size <= r.w.cfg.EagerThreshold {
		// Eager: a copy of the user buffer goes on the wire now, so the
		// send is locally complete.
		r.w.fab.Send(&fabric.Message{
			Src: r.me, Dst: dst, Size: b.Size + r.w.cfg.HeaderBytes,
			Meta: &wire{kind: wireEager, src: r.me, tag: tag, size: b.Size, payload: clonePayload(b)},
		})
		q.done = true
		return q
	}
	// Rendezvous: advertise with an RTS; data moves when the target matches.
	r.isendsInFlight.Add(1)
	r.w.fab.Send(&fabric.Message{
		Src: r.me, Dst: dst, Size: r.w.cfg.CtrlBytes,
		Meta: &wire{kind: wireRTS, src: r.me, tag: tag, size: b.Size, sreq: q},
	})
	return q
}

// Send is the blocking send used for active messages. PaRSEC only ever
// blocks on eager-sized messages (§4.2.1: "Active message sizes typically
// fall within the range where MPI implementations will use an eager
// protocol"), so Send requires an eager-sized payload and completes
// immediately; a rendezvous-sized payload panics to surface the misuse,
// since truly blocking would deadlock a polling-based caller.
func (r *Rank) Send(b buf.Buf, dst, tag int) {
	if b.Size > r.w.cfg.EagerThreshold {
		panic("mpi: blocking Send beyond the eager threshold")
	}
	q := r.Isend(b, dst, tag)
	q.active = false // fire-and-forget; nothing to collect
}

// Irecv posts a nonblocking receive into b matching (src, tag); src may be
// AnySource. The caller charges Config.PostCost. If a matching unexpected
// message is already queued it is consumed immediately.
func (r *Rank) Irecv(b buf.Buf, src, tag int) *Request {
	q := &Request{r: r, kind: reqRecv, active: true, src: src, tag: tag, b: b}
	r.matchOrPost(q)
	return q
}

// RecvInit creates an inactive persistent receive (MPI_Recv_init). Start
// activates it.
func (r *Rank) RecvInit(b buf.Buf, src, tag int) *Request {
	return &Request{r: r, kind: reqRecv, persistent: true, src: src, tag: tag, b: b}
}

// Start activates a persistent request (MPI_Start). The caller charges
// Config.PostCost. Starting an active request or a non-persistent request
// panics.
func (r *Rank) Start(q *Request) {
	if q.kind != reqRecv || !q.persistent {
		panic("mpi: Start supports persistent receives only")
	}
	if q.active {
		panic("mpi: Start on an already-active request")
	}
	q.done = false
	q.awaitingData = false
	q.Status = Status{}
	r.matchOrPost(q)
}

func (r *Rank) matchOrPost(q *Request) {
	q.active = true
	for i, u := range r.unexpected {
		if !match(q, u.src, u.tag) {
			continue
		}
		r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
		r.unexpectedHits.Inc()
		r.consume(q, u)
		return
	}
	r.posted = append(r.posted, q)
}

// consume applies a matched arrival to a receive request.
func (r *Rank) consume(q *Request, u *wire) {
	switch u.kind {
	case wireEager:
		buf.Copy(q.b, u.payload)
		q.Status = Status{Source: u.src, Tag: u.tag, Size: u.size}
		q.done = true
	case wireRTS:
		// Clear the origin to send: the data message will carry q.
		q.awaitingData = true
		r.w.fab.Send(&fabric.Message{
			Src: r.me, Dst: u.src, Size: r.w.cfg.CtrlBytes,
			Meta: &wire{kind: wireCTS, src: r.me, tag: u.tag, size: u.size, sreq: u.sreq, rreq: q},
		})
	default:
		panic("mpi: unexpected wire kind in consume")
	}
}

// onArrival is the fabric delivery handler: it stages traffic for the next
// progress pass, modeling a NIC writing completion entries that no software
// has looked at yet.
func (r *Rank) onArrival(m *fabric.Message) {
	r.stage(m.Meta.(*wire))
}

func (r *Rank) stage(w *wire) {
	wasEmpty := len(r.staged) == 0
	r.staged = append(r.staged, w)
	if wasEmpty {
		r.notify()
	}
}

// ProgressCost returns the CPU cost of draining the currently staged
// arrivals: matching for every message, ordering enforcement when
// overtaking is disallowed, and eager payload copies.
func (r *Rank) ProgressCost() sim.Duration {
	var d sim.Duration
	scan := sim.Duration(len(r.posted)+len(r.unexpected)) * r.w.cfg.ScanPerEntry
	for _, w := range r.staged {
		switch w.kind {
		case wireSendDone:
			d += r.w.cfg.TestPerReq // trivial CQ entry
			continue
		case wireEager:
			d += r.w.cfg.MatchCost + scan + r.w.cfg.copyCost(w.size)
		default:
			d += r.w.cfg.MatchCost + scan
		}
		if !r.w.cfg.AllowOvertaking {
			d += r.w.cfg.OrderCost
		}
	}
	return d
}

// StagedWork reports whether a progress pass has anything to do.
func (r *Rank) StagedWork() bool { return len(r.staged) > 0 }

// Progress drains staged arrivals: matches eager messages and RTSes against
// posted receives, queues the unmatched as unexpected, reacts to CTSes by
// launching rendezvous data, and completes requests whose data arrived.
// Callers charge ProgressCost (sampled immediately before the call). Real
// MPI implementations only progress the wire inside MPI calls; this method
// is the library-side half of that behavior.
func (r *Rank) Progress() {
	staged := r.staged
	r.staged = nil
	for _, w := range staged {
		switch w.kind {
		case wireEager, wireRTS:
			if q := r.findPosted(w.src, w.tag); q != nil {
				r.consume(q, w)
			} else {
				r.unexpected = append(r.unexpected, w)
			}
			if w.kind == wireEager {
				r.received.Inc()
			}
		case wireCTS:
			// We are the rendezvous origin: stream the payload.
			sreq := w.sreq
			r.w.fab.Send(&fabric.Message{
				Src: r.me, Dst: w.src, Size: sreq.size + r.w.cfg.HeaderBytes,
				Meta: &wire{kind: wireData, src: r.me, tag: w.tag, size: sreq.size, payload: sreq.b, rreq: w.rreq},
				OnTx: func() {
					// Source buffer drained: stage a local completion so the
					// next Testsome observes it.
					r.stage(&wire{kind: wireSendDone, sreq: sreq})
				},
			})
		case wireData:
			q := w.rreq
			buf.Copy(q.b, w.payload)
			q.Status = Status{Source: w.src, Tag: w.tag, Size: w.size}
			q.done = true
			q.awaitingData = false
			r.received.Inc()
		case wireSendDone:
			w.sreq.done = true
			r.isendsInFlight.Add(-1)
		}
	}
}

func (r *Rank) findPosted(src, tag int) *Request {
	for i, q := range r.posted {
		if q.done || q.awaitingData {
			continue
		}
		if match(q, src, tag) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			return q
		}
	}
	return nil
}

func match(q *Request, src, tag int) bool {
	return (q.src == AnySource || q.src == src) && q.tag == tag
}

// Testsome runs a progress pass and then collects every completed request
// in reqs, returning their indices. Persistent requests are deactivated
// until re-Started; others are permanently deactivated. nil entries are
// skipped, following the MPI convention for inactive slots. Callers charge
// ProgressCost() + TestCost(len(reqs)).
func (r *Rank) Testsome(reqs []*Request) []int {
	r.Progress()
	var out []int
	for i, q := range reqs {
		if q == nil || !q.active || !q.done {
			continue
		}
		q.active = false
		out = append(out, i)
	}
	return out
}

// LockedSubmit routes a multithreaded MPI call through the library's global
// lock: fn runs after cost plus any queueing delay behind other concurrent
// callers. This is the MPI_THREAD_MULTIPLE serialization the paper cites
// ([24]) as a reason PaRSEC funnels communication through one thread.
func (r *Rank) LockedSubmit(cost sim.Duration, fn func()) {
	r.lock.Submit(r.w.cfg.LockHold+cost, fn)
}

// LockQueue exposes the current depth of the global-lock queue (for tests
// and contention experiments).
func (r *Rank) LockQueue() int { return r.lock.QueueLen() }
