// Package core defines the PaRSEC communication-engine abstraction of the
// paper's Listing 1: a backend-independent active-message plus one-sided-put
// API that the runtime (internal/parsec) programs against, with two
// implementations — internal/core/mpice (Section 4.2) and internal/core/lcice
// (Section 5.3).
//
// The engine owns the rank's communication thread: a serial virtual-time
// processor on which active-message callbacks and completion callbacks
// execute. Backends differ in how wire progress relates to that thread; the
// MPI backend interleaves progress with callback execution on the single
// communication thread, while the LCI backend divorces them onto a dedicated
// progress thread — the structural change the paper credits for most of its
// latency reduction.
package core

import (
	"encoding/binary"
	"fmt"

	"amtlci/internal/buf"
	"amtlci/internal/sim"
)

// Tag identifies a registered active-message callback (tag_reg in Listing 1).
type Tag int32

// AMCallback handles one delivered active message on the communication
// thread. data is only valid for the duration of the call; implementations
// that need it longer must copy it. src is the sending rank.
type AMCallback func(e Engine, tag Tag, data []byte, src int)

// MemHandle names a registered memory region (mem_reg in Listing 1). It is
// 12 bytes on the wire, so a GET DATA active message can carry the
// requester's registration to the data's owner.
type MemHandle struct {
	Rank int32
	ID   uint64
}

// handleBytes is the wire encoding size of a MemHandle.
const handleBytes = 12

// PutArgs carries the arguments of the one-sided put of Listing 1. Data
// flows from the local region (LReg at LDispl) into the remote region (RReg
// at RDispl) on rank Remote. LocalCB runs on the origin's communication
// thread when the local buffer is reusable; at the target, the AM callback
// registered for RTag runs with RCBData once the data has landed — the
// remote completion notification that plain MPI RMA cannot express (§4.2.2).
type PutArgs struct {
	LReg    MemHandle
	LDispl  int64
	RReg    MemHandle
	RDispl  int64
	Size    int64
	Remote  int
	LocalCB func()
	RTag    Tag
	RCBData []byte
}

// Stats counts engine activity for experiments.
type Stats struct {
	AMsSent      uint64
	AMsDelivered uint64
	PutsStarted  uint64
	PutsDone     uint64
	PutBytes     uint64
	Deferred     uint64 // operations that could not start immediately
}

// Engine is the communication engine of Listing 1, plus the threading hooks
// the runtime needs in simulation (Submit replaces "the communication thread
// calls progress in a loop").
type Engine interface {
	// Rank and Size identify this engine within the parallel job.
	Rank() int
	Size() int

	// TagReg registers cb for tag; maxLen bounds the active-message payload
	// (the MPI backend sizes its persistent-receive buffers with it).
	// Registering a tag twice panics.
	TagReg(tag Tag, cb AMCallback, maxLen int64)

	// SendAM sends an eager active message from the communication thread.
	// The engine charges the send cost to the communication thread.
	SendAM(tag Tag, remote int, data []byte)

	// SendAMMT sends an active message directly from a worker thread
	// (PaRSEC's communication multithreading, §6.4.3), bypassing the
	// communication thread. worker is the calling thread; done, if non-nil,
	// runs when the call returns to the worker.
	SendAMMT(worker *sim.Proc, tag Tag, remote int, data []byte, done func())

	// MemReg registers b for remote access and returns its handle;
	// MemDereg releases it. Lookup resolves a local handle (for tests and
	// the runtime's bookkeeping).
	MemReg(b buf.Buf) MemHandle
	MemDereg(h MemHandle)
	Lookup(h MemHandle) buf.Buf

	// Put starts the one-sided transfer described by a. It must be called
	// on the communication thread (via Submit).
	Put(a PutArgs)

	// Submit schedules fn on the communication thread after charging cost,
	// waking it if idle. It is how the runtime funnels work to the engine.
	Submit(cost sim.Duration, fn func())

	// CommProc exposes the communication thread's processor (for
	// utilization measurements).
	CommProc() *sim.Proc

	// OnError registers fn to run (on the engine's goroutine) when the
	// engine hits a communication failure: the transport declared a peer
	// unreachable or dead, or a malformed header arrived on the wire.
	// Registration REPLACES: the engine keeps exactly one handler and the
	// latest registration wins, so a recovery orchestrator can take over
	// error routing from the plain abort a runtime installed earlier. A nil
	// fn is ignored (the previous handler, if any, stays installed); with
	// no handler registered at all a failure panics — silence would be a
	// hang. For an unrecoverable failure the engine stops issuing new
	// traffic afterwards; a failure that satisfies PeerDeath instead evicts
	// the dead peer and keeps the engine running for the survivors.
	OnError(fn func(error))

	// Err returns the first unrecoverable failure, or nil.
	Err() error

	// Stats returns activity counters.
	Stats() Stats
}

// PeerDeath is implemented by transport errors that condemn a whole rank
// (rel.PeerDead), as opposed to a single failed operation. An engine that
// extracts a PeerDeath from its error chain (errors.As) evicts the dead peer
// — dropping traffic toward it and purging in-flight state — but keeps
// serving the surviving ranks, so a recovery layer above can re-map the dead
// rank's work instead of aborting the job.
type PeerDeath interface {
	error
	// DeadPeer returns the rank declared dead.
	DeadPeer() int
}

// Registry implements the MemReg half of an engine; both backends embed it.
type Registry struct {
	rank   int32
	nextID uint64
	mem    map[uint64]buf.Buf
}

// NewRegistry returns an empty registry for rank.
func NewRegistry(rank int) *Registry {
	return &Registry{rank: int32(rank), mem: make(map[uint64]buf.Buf)}
}

// MemReg registers b and returns its handle.
func (g *Registry) MemReg(b buf.Buf) MemHandle {
	g.nextID++
	g.mem[g.nextID] = b
	return MemHandle{Rank: g.rank, ID: g.nextID}
}

// MemDereg releases h. Deregistering an unknown handle panics — it means a
// put raced with deregistration, which would corrupt memory on real RDMA
// hardware.
func (g *Registry) MemDereg(h MemHandle) {
	if h.Rank != g.rank {
		panic(fmt.Sprintf("core: deregistering remote handle %+v at rank %d", h, g.rank))
	}
	if _, ok := g.mem[h.ID]; !ok {
		panic(fmt.Sprintf("core: deregistering unknown handle %+v", h))
	}
	delete(g.mem, h.ID)
}

// Lookup resolves h to its registered buffer, panicking on a foreign or
// unknown handle.
func (g *Registry) Lookup(h MemHandle) buf.Buf {
	if h.Rank != g.rank {
		panic(fmt.Sprintf("core: handle %+v looked up at rank %d", h, g.rank))
	}
	b, ok := g.mem[h.ID]
	if !ok {
		panic(fmt.Sprintf("core: unknown handle %+v", h))
	}
	return b
}

// PutHeader is the handshake both backends exchange to emulate a one-sided
// put over two-sided transport (§4.2.2, §5.3.3): where to receive, how much,
// which tag the data will use, and the remote completion callback.
type PutHeader struct {
	RReg    MemHandle
	RDispl  int64
	Size    int64
	DataTag int32 // backend-chosen tag for the data transfer
	RTag    Tag
	RCBData []byte
}

// Marshal encodes h for the wire into a fresh buffer.
func (h PutHeader) Marshal() []byte {
	return h.AppendTo(make([]byte, 0, PutHeaderFixedBytes+len(h.RCBData)))
}

// AppendTo appends h's wire encoding to dst and returns the extended slice,
// letting a caller marshal into scratch it reuses.
func (h PutHeader) AppendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.RReg.Rank))
	dst = binary.LittleEndian.AppendUint64(dst, h.RReg.ID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.RDispl))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.Size))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.DataTag))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.RTag))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(h.RCBData)))
	return append(dst, h.RCBData...)
}

// PutHeaderFixedBytes is the encoded size of a PutHeader before RCBData.
const PutHeaderFixedBytes = 4 + 8 + 8 + 8 + 4 + 4 + 4

// UnmarshalPutHeader decodes a header produced by Marshal. A truncated or
// otherwise malformed buffer yields an error, never a panic — callers decide
// whether that is a protocol bug.
func UnmarshalPutHeader(b []byte) (PutHeader, error) {
	var h PutHeader
	if len(b) < PutHeaderFixedBytes {
		return h, fmt.Errorf("core: put header truncated: %d bytes, need %d",
			len(b), PutHeaderFixedBytes)
	}
	h.RReg.Rank = int32(binary.LittleEndian.Uint32(b[0:4]))
	h.RReg.ID = binary.LittleEndian.Uint64(b[4:12])
	h.RDispl = int64(binary.LittleEndian.Uint64(b[12:20]))
	h.Size = int64(binary.LittleEndian.Uint64(b[20:28]))
	h.DataTag = int32(binary.LittleEndian.Uint32(b[28:32]))
	h.RTag = Tag(binary.LittleEndian.Uint32(b[32:36]))
	n := int(int32(binary.LittleEndian.Uint32(b[36:40])))
	if n < 0 || PutHeaderFixedBytes+n > len(b) {
		return h, fmt.Errorf("core: put header callback data length %d exceeds %d remaining bytes",
			n, len(b)-PutHeaderFixedBytes)
	}
	h.RCBData = b[PutHeaderFixedBytes : PutHeaderFixedBytes+n]
	return h, nil
}

// TagTable is the tag→callback map shared by both backends (a hash table in
// the LCI backend, §5.3.2; parallel arrays in the MPI backend, §4.2.1 —
// functionally identical).
type TagTable struct {
	entries map[Tag]tagEntry
}

type tagEntry struct {
	cb     AMCallback
	maxLen int64
}

// NewTagTable returns an empty table.
func NewTagTable() *TagTable { return &TagTable{entries: make(map[Tag]tagEntry)} }

// Register adds a callback; duplicate registration panics.
func (t *TagTable) Register(tag Tag, cb AMCallback, maxLen int64) {
	if _, dup := t.entries[tag]; dup {
		panic(fmt.Sprintf("core: tag %d registered twice", tag))
	}
	if cb == nil {
		panic("core: nil AM callback")
	}
	t.entries[tag] = tagEntry{cb, maxLen}
}

// Lookup resolves a tag, panicking on unknown tags (an AM for an
// unregistered tag is always a protocol bug).
func (t *TagTable) Lookup(tag Tag) (AMCallback, int64) {
	e, ok := t.entries[tag]
	if !ok {
		panic(fmt.Sprintf("core: active message for unregistered tag %d", tag))
	}
	return e.cb, e.maxLen
}

// Len returns the number of registered tags.
func (t *TagTable) Len() int { return len(t.entries) }

// Tags returns the registered tags in unspecified order.
func (t *TagTable) Tags() []Tag {
	out := make([]Tag, 0, len(t.entries))
	for tag := range t.entries {
		out = append(out, tag)
	}
	return out
}
