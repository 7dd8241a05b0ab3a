package lcice

import (
	"amtlci/internal/buf"
	"amtlci/internal/core"
	"amtlci/internal/lci"
)

// The engine's per-message state lives in pooled operation objects whose
// callbacks — the thread-side body, the LCI attempt that the deferred queue
// retries, the LCI completion handler, the FIFO handle — are bound once,
// when the object is first built. Recycling an op recycles its closures, so
// the steady-state send and receive paths allocate nothing (the §5.3.2
// callback handles are "allocated from a memory pool"). Every op is taken
// and released on its engine's own goroutine. An op whose operation is
// abandoned (engine failure, evicted peer) is never released and is left to
// the GC.

// amSend is one outgoing active message (SendAM, SendAMMT).
type amSend struct {
	e      *Engine
	remote int
	tag    int
	b      buf.Buf
	done   func() // SendAMMT: run after the send is issued

	run func()       // on the sending thread, after the send cost
	try func() error // the LCI send; released once it succeeds
}

func (e *Engine) newAMSend(remote, tag int, data []byte, done func()) *amSend {
	var op *amSend
	if n := len(e.freeAMSends); n > 0 {
		op = e.freeAMSends[n-1]
		e.freeAMSends[n-1] = nil
		e.freeAMSends = e.freeAMSends[:n-1]
	} else {
		op = &amSend{e: e}
		op.run = op.issue
		op.try = op.send
	}
	op.remote, op.tag, op.b, op.done = remote, tag, buf.FromBytes(data), done
	return op
}

func (op *amSend) release() {
	op.b, op.done = buf.Buf{}, nil
	op.e.freeAMSends = append(op.e.freeAMSends, op)
}

func (op *amSend) issue() {
	e, done := op.e, op.done
	if e.failed == nil && !e.deadPeers[op.remote] {
		e.attempt(op.remote, op.try)
		e.amsSent.Inc()
	} else {
		op.release()
	}
	if done != nil {
		done()
	}
}

func (op *amSend) send() error {
	if err := op.e.eagerSend(op.remote, op.tag, op.b); err != nil {
		return err
	}
	op.release()
	return nil
}

// amRecv is the callback handle of one delivered active message. It holds
// the LCI request, and so the packet under the payload, until the callback
// returns: core.AMCallback data is only valid for the duration of the call.
type amRecv struct {
	e   *Engine
	cb  core.AMCallback
	tag core.Tag
	req lci.Request

	run func() // on the communication thread, from the AM FIFO
}

func (e *Engine) newAMRecv(cb core.AMCallback, tag core.Tag, r lci.Request) *amRecv {
	var op *amRecv
	if n := len(e.freeAMRecvs); n > 0 {
		op = e.freeAMRecvs[n-1]
		e.freeAMRecvs[n-1] = nil
		e.freeAMRecvs = e.freeAMRecvs[:n-1]
	} else {
		op = &amRecv{e: e}
		op.run = op.dispatch
	}
	op.cb, op.tag, op.req = cb, tag, r
	return op
}

func (op *amRecv) dispatch() {
	e, r := op.e, op.req
	op.cb(e, op.tag, r.Data.Bytes, r.Rank)
	e.ep.Free(r)
	op.cb, op.req = nil, lci.Request{}
	e.freeAMRecvs = append(e.freeAMRecvs, op)
}

// putSend is one outgoing put until its LCI sends are posted: the
// handshake header is marshaled into hdr, which the LCI send copies. A
// rendezvous put posts two sends, in either order under back-pressure (a
// retry pass tries every deferred operation), so pending counts them down.
// The local callback rides on the Direct send as its user context.
type putSend struct {
	e       *Engine
	remote  int
	dataTag int
	local   buf.Buf
	localCB func()
	hdr     []byte
	pending int

	sendEager     func()       // eager put: post the handshake with the data
	tryEager      func() error // its LCI send
	sendHandshake func()       // rendezvous put: post the handshake
	tryHandshake  func() error
	sendData      func() // post the Direct send of the data
	tryData       func() error
}

func (e *Engine) newPutSend(a core.PutArgs, local buf.Buf, dataTag, pending int) *putSend {
	var op *putSend
	if n := len(e.freePuts); n > 0 {
		op = e.freePuts[n-1]
		e.freePuts[n-1] = nil
		e.freePuts = e.freePuts[:n-1]
	} else {
		op = &putSend{e: e}
		op.bind()
	}
	op.remote, op.dataTag, op.local, op.localCB, op.pending = a.Remote, dataTag, local, a.LocalCB, pending
	op.hdr = core.PutHeader{
		RReg: a.RReg, RDispl: a.RDispl, Size: a.Size,
		DataTag: int32(dataTag), RTag: a.RTag, RCBData: a.RCBData,
	}.AppendTo(op.hdr[:0])
	return op
}

// posted counts one of the op's sends done, releasing the op after the last.
func (op *putSend) posted() {
	if op.pending--; op.pending == 0 {
		op.local, op.localCB = buf.Buf{}, nil
		op.e.freePuts = append(op.e.freePuts, op)
	}
}

func (op *putSend) bind() {
	e := op.e
	op.sendEager = func() { e.attempt(op.remote, op.tryEager) }
	op.tryEager = func() error {
		if err := e.ep.Sendmx(op.remote, hsTag, buf.FromBytes(op.hdr), op.local); err != nil {
			return err
		}
		localCB := op.localCB
		op.posted()
		e.finishEagerPut(localCB)
		return nil
	}
	op.sendHandshake = func() { e.attempt(op.remote, op.tryHandshake) }
	op.tryHandshake = func() error {
		if err := e.ep.Sendm(op.remote, hsTag, buf.FromBytes(op.hdr)); err != nil {
			return err
		}
		op.posted()
		return nil
	}
	op.sendData = func() { e.attempt(op.remote, op.tryData) }
	op.tryData = func() error {
		if err := e.ep.Sendd(op.remote, op.dataTag, op.local, e.putSent, op.localCB); err != nil {
			return err
		}
		op.posted()
		return nil
	}
}

// putRecv is the target side of one put: where the data lands and the
// remote-completion callback with a copy of its data, which stays valid
// until the callback returns.
type putRecv struct {
	e       *Engine
	src     int
	dataTag int
	target  buf.Buf
	rtag    core.Tag
	rcb     []byte
	cb      core.AMCallback

	postRecv func() error // post the Direct receive of the data
	landed   lci.Comp     // Direct receive completion (progress thread)
	run      func()       // the remote callback, from the bulk FIFO
}

func (e *Engine) newPutRecv(src int, h core.PutHeader) *putRecv {
	var op *putRecv
	if n := len(e.freePutRecvs); n > 0 {
		op = e.freePutRecvs[n-1]
		e.freePutRecvs[n-1] = nil
		e.freePutRecvs = e.freePutRecvs[:n-1]
	} else {
		op = &putRecv{e: e}
		op.bind()
	}
	op.src, op.dataTag, op.rtag = src, int(h.DataTag), h.RTag
	op.target = e.reg.Lookup(h.RReg).Slice(h.RDispl, h.Size)
	op.rcb = append(op.rcb[:0], h.RCBData...)
	return op
}

func (op *putRecv) bind() {
	e := op.e
	op.postRecv = func() error { return e.ep.Recvd(op.src, op.dataTag, op.target, op.landed, nil) }
	op.landed = lci.Handler(func(lci.Request) { e.deliverRemoteCompletion(op) })
	op.run = func() {
		op.cb(e, op.rtag, op.rcb, op.src)
		op.target, op.cb = buf.Buf{}, nil
		e.freePutRecvs = append(e.freePutRecvs, op)
	}
}
