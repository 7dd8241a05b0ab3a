package main

import (
	"sync/atomic"
	_ "unsafe" // go:linkname

	"amtlci/internal/buf"
	"amtlci/internal/core"
	"amtlci/internal/fabric"
	"amtlci/internal/parsec"
	"amtlci/internal/sim"
)

// nanotime is the runtime's monotonic clock: one vDSO read, about half
// the cost of time.Now, which matters at ~20 M spans per run.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// layer names a traced boundary's callee.
type layer uint8

const (
	layerFabric layer = iota
	layerLCI
	layerMPI
	layerLCICE
	layerMPICE
	layerParsec
	layerTaskpool
	nLayers
)

var layerNames = [nLayers]string{"fabric", "lci", "mpi", "lcice", "mpice", "parsec", "taskpool"}

// frame is one open span.
type frame struct {
	start int64
	child int64 // time covered by closed child spans, clock reads included
}

// shardTrace is the span stack and per-layer totals of one simulation
// shard. Only the goroutine currently advancing that shard touches it, so
// it needs no synchronization.
type shardTrace struct {
	stack []frame
	self  [nLayers]int64
	calls [nLayers]uint64
	bytes uint64 // fabric payload bytes sent
	clock int64  // calibrated cost of one clock read, ns
}

func (s *shardTrace) enter() { s.stack = append(s.stack, frame{start: nanotime()}) }

// exit closes the innermost span, charging l its self time: the span's
// duration minus its children and minus the clock reads the measurement
// itself added. A closed span occupies its parent for its duration plus
// one more clock read (the half of each read outside the span).
func (s *shardTrace) exit(l layer) {
	end := nanotime()
	n := len(s.stack) - 1
	f := s.stack[n]
	s.stack = s.stack[:n]
	d := end - f.start
	s.self[l] += d - s.clock - f.child
	s.calls[l]++
	if n > 0 {
		s.stack[n-1].child += d + s.clock
	}
}

// Tracer collects boundary spans. Each shard of the simulation domain has
// its own span stack, found from the rank a boundary call belongs to.
// Taskpool methods do not say which rank calls them, so on a sharded
// domain each call is timed on its own, into shared totals, and its time is
// not subtracted from its caller's span.
type Tracer struct {
	clock     int64
	shards    []*shardTrace
	owner     func(rank int) int
	sharded   bool
	poolCalls atomic.Uint64
	poolNS    atomic.Int64
}

// NewTracer calibrates the cost of one clock read.
func NewTracer() *Tracer { return &Tracer{clock: calibrateClock()} }

func calibrateClock() int64 {
	const reads = 1 << 20
	best := int64(1) << 62
	for range 5 {
		t0 := nanotime()
		for range reads {
			nanotime()
		}
		if d := nanotime() - t0; d < best {
			best = d
		}
	}
	return best / reads
}

// bind gives each shard of dom its own span stack.
func (t *Tracer) bind(dom sim.Domain) {
	t.shards = make([]*shardTrace, dom.Shards())
	for i := range t.shards {
		t.shards[i] = &shardTrace{clock: t.clock, stack: make([]frame, 0, 16)}
	}
	t.owner = dom.ShardOf
	t.sharded = dom.Shards() > 1
}

func (t *Tracer) shardOf(rank int) *shardTrace { return t.shards[t.owner(rank)] }

// spanStat is one layer's merged totals.
type spanStat struct {
	Calls  uint64 `json:"calls"`
	SelfNS int64  `json:"self_ns"`
}

// totals merges the shards' per-layer totals.
func (t *Tracer) totals() (map[string]spanStat, uint64) {
	out := make(map[string]spanStat, nLayers)
	var bytes uint64
	for l := range nLayers {
		var s spanStat
		for _, st := range t.shards {
			s.Calls += st.calls[l]
			s.SelfNS += st.self[l]
		}
		out[layerNames[l]] = s
	}
	for _, st := range t.shards {
		bytes += st.bytes
	}
	if t.sharded {
		out["taskpool"] = spanStat{Calls: t.poolCalls.Load(), SelfNS: t.poolNS.Load()}
	}
	return out, bytes
}

// tracedNet interposes on the lci/mpi <-> fabric boundary.
type tracedNet struct {
	fabric.Network
	tr    *Tracer
	layer layer // the library bound above: layerLCI or layerMPI
}

func (n *tracedNet) Send(m *fabric.Message) {
	st := n.tr.shardOf(m.Src)
	st.bytes += uint64(m.Size)
	st.enter()
	n.Network.Send(m)
	st.exit(layerFabric)
}

func (n *tracedNet) SetHandler(rank int, h fabric.Handler) {
	st, l := n.tr.shardOf(rank), n.layer
	n.Network.SetHandler(rank, func(m *fabric.Message) {
		st.enter()
		h(m)
		st.exit(l)
	})
}

// tracedEngine interposes on the parsec <-> lcice/mpice boundary: every
// core.Engine method is a span of the engine's layer, and every callback
// the engine receives is a span of parsec.
type tracedEngine struct {
	core.Engine
	layer layer
	st    *shardTrace // the engine's rank's shard
}

func (e *tracedEngine) callback(fn func()) func() {
	if fn == nil {
		return nil
	}
	st := e.st
	return func() {
		st.enter()
		fn()
		st.exit(layerParsec)
	}
}

func (e *tracedEngine) Rank() int {
	e.st.enter()
	r := e.Engine.Rank()
	e.st.exit(e.layer)
	return r
}

func (e *tracedEngine) Size() int {
	e.st.enter()
	n := e.Engine.Size()
	e.st.exit(e.layer)
	return n
}

func (e *tracedEngine) TagReg(tag core.Tag, cb core.AMCallback, maxLen int64) {
	st := e.st
	wrapped := func(_ core.Engine, tag core.Tag, data []byte, src int) {
		st.enter()
		cb(e, tag, data, src)
		st.exit(layerParsec)
	}
	e.st.enter()
	e.Engine.TagReg(tag, wrapped, maxLen)
	e.st.exit(e.layer)
}

func (e *tracedEngine) SendAM(tag core.Tag, remote int, data []byte) {
	e.st.enter()
	e.Engine.SendAM(tag, remote, data)
	e.st.exit(e.layer)
}

func (e *tracedEngine) SendAMMT(worker *sim.Proc, tag core.Tag, remote int, data []byte, done func()) {
	done = e.callback(done)
	e.st.enter()
	e.Engine.SendAMMT(worker, tag, remote, data, done)
	e.st.exit(e.layer)
}

func (e *tracedEngine) MemReg(b buf.Buf) core.MemHandle {
	e.st.enter()
	h := e.Engine.MemReg(b)
	e.st.exit(e.layer)
	return h
}

func (e *tracedEngine) MemDereg(h core.MemHandle) {
	e.st.enter()
	e.Engine.MemDereg(h)
	e.st.exit(e.layer)
}

func (e *tracedEngine) Lookup(h core.MemHandle) buf.Buf {
	e.st.enter()
	b := e.Engine.Lookup(h)
	e.st.exit(e.layer)
	return b
}

func (e *tracedEngine) Put(a core.PutArgs) {
	a.LocalCB = e.callback(a.LocalCB)
	e.st.enter()
	e.Engine.Put(a)
	e.st.exit(e.layer)
}

func (e *tracedEngine) Submit(cost sim.Duration, fn func()) {
	fn = e.callback(fn)
	e.st.enter()
	e.Engine.Submit(cost, fn)
	e.st.exit(e.layer)
}

func (e *tracedEngine) CommProc() *sim.Proc {
	e.st.enter()
	p := e.Engine.CommProc()
	e.st.exit(e.layer)
	return p
}

func (e *tracedEngine) OnError(fn func(error)) {
	st := e.st
	var wrapped func(error)
	if fn != nil {
		wrapped = func(err error) {
			st.enter()
			fn(err)
			st.exit(layerParsec)
		}
	}
	e.st.enter()
	e.Engine.OnError(wrapped)
	e.st.exit(e.layer)
}

func (e *tracedEngine) Err() error {
	e.st.enter()
	err := e.Engine.Err()
	e.st.exit(e.layer)
	return err
}

func (e *tracedEngine) Stats() core.Stats {
	e.st.enter()
	s := e.Engine.Stats()
	e.st.exit(e.layer)
	return s
}

// tracedPool interposes on the parsec -> taskpool boundary.
type tracedPool struct {
	parsec.Taskpool
	tr *Tracer
}

func (p *tracedPool) begin() (*shardTrace, int64) {
	if p.tr.sharded {
		return nil, nanotime()
	}
	st := p.tr.shards[0]
	st.enter()
	return st, 0
}

func (p *tracedPool) end(st *shardTrace, t0 int64) {
	if st != nil {
		st.exit(layerTaskpool)
		return
	}
	p.tr.poolNS.Add(nanotime() - t0 - p.tr.clock)
	p.tr.poolCalls.Add(1)
}

func (p *tracedPool) Name() string {
	st, t0 := p.begin()
	s := p.Taskpool.Name()
	p.end(st, t0)
	return s
}

func (p *tracedPool) Classes() []parsec.TaskClass {
	st, t0 := p.begin()
	c := p.Taskpool.Classes()
	p.end(st, t0)
	return c
}

func (p *tracedPool) RankOf(t parsec.TaskID) int {
	st, t0 := p.begin()
	r := p.Taskpool.RankOf(t)
	p.end(st, t0)
	return r
}

func (p *tracedPool) Cost(t parsec.TaskID) sim.Duration {
	st, t0 := p.begin()
	d := p.Taskpool.Cost(t)
	p.end(st, t0)
	return d
}

func (p *tracedPool) Priority(t parsec.TaskID) int64 {
	st, t0 := p.begin()
	v := p.Taskpool.Priority(t)
	p.end(st, t0)
	return v
}

func (p *tracedPool) Inputs(t parsec.TaskID, out []parsec.Dep) []parsec.Dep {
	st, t0 := p.begin()
	out = p.Taskpool.Inputs(t, out)
	p.end(st, t0)
	return out
}

func (p *tracedPool) Successors(t parsec.TaskID, flow int32, out []parsec.Dep) []parsec.Dep {
	st, t0 := p.begin()
	out = p.Taskpool.Successors(t, flow, out)
	p.end(st, t0)
	return out
}

// Roots hands emit's calls back into parsec, so they are parsec spans
// nested in the taskpool span.
func (p *tracedPool) Roots(rank int, emit func(parsec.TaskID)) {
	st, t0 := p.begin()
	if st != nil {
		inner := emit
		emit = func(t parsec.TaskID) {
			st.enter()
			inner(t)
			st.exit(layerParsec)
		}
	}
	p.Taskpool.Roots(rank, emit)
	p.end(st, t0)
}

func (p *tracedPool) LocalTasks(rank int) int64 {
	st, t0 := p.begin()
	n := p.Taskpool.LocalTasks(rank)
	p.end(st, t0)
	return n
}

func (p *tracedPool) Execute(t parsec.TaskID, inputs []parsec.DataRef) []parsec.DataRef {
	st, t0 := p.begin()
	out := p.Taskpool.Execute(t, inputs)
	p.end(st, t0)
	return out
}

func (p *tracedPool) MakeCopy(t parsec.TaskID, flow int32, size int64) parsec.DataRef {
	st, t0 := p.begin()
	d := p.Taskpool.MakeCopy(t, flow, size)
	p.end(st, t0)
	return d
}
