// Package lci implements the Lightweight Communication Interface of the
// paper (Section 5; Snir, Dang, Mor, Yan — LCI v1.7). It mirrors the
// properties that make LCI a better substrate for asynchronous many-task
// runtimes than MPI:
//
//   - three explicit protocols chosen by the caller: Immediate (inline,
//     about a cache line), Buffered (a few pages, copied through
//     pre-registered packets, dynamically allocated at the receiver), and
//     Direct (any length, RDMA rendezvous with tag matching);
//   - non-blocking calls that fail with ErrRetry instead of blocking when
//     resources are exhausted, letting the library exert back-pressure on
//     the runtime (§5.1);
//   - completion delivered through synchronizers, completion queues, or
//     handler functions invoked from the explicit Progress call — no
//     per-request polling arrays (§5.2);
//   - receiver-side dynamic buffer allocation for unexpected short/medium
//     messages, so no persistent receives or message probing are needed:
//     an arrival is delivered in the sender's packet, which the consumer
//     hands back with Endpoint.Free (LCI_mbuffer_free) once it is done;
//   - a cost model substantially leaner than MPI's: completions cost O(work
//     completed), not O(requests outstanding).
//
// Cost accounting follows the same convention as internal/mpi: state
// mutations are immediate; callers charge the exposed cost estimators on
// their thread Procs before invoking them.
package lci

import (
	"errors"

	"amtlci/internal/buf"
	"amtlci/internal/metrics"
	"amtlci/internal/sim"
)

// ErrRetry reports that the library lacks the resources to start the
// requested operation; the caller must progress existing communications and
// resubmit (§5.1).
var ErrRetry = errors.New("lci: insufficient resources, retry after progress")

// Config holds protocol thresholds, resource limits, and the CPU cost model.
type Config struct {
	// ImmediateMax is the largest payload for the Immediate protocol
	// (about a cache line, sent inline from the user buffer).
	ImmediateMax int64
	// BufferedMax is the largest payload for the Buffered protocol. The
	// paper reports an upper AM limit of about 12 KiB in the current
	// implementation (§5.3.2).
	BufferedMax int64
	// SendPackets bounds in-flight Immediate+Buffered sends (the
	// pre-registered packet pool); exceeding it returns ErrRetry.
	SendPackets int
	// MaxDirect bounds concurrently posted Direct receives and sends
	// (hardware queue-pair resources); exceeding it returns ErrRetry.
	MaxDirect int
	// PostCost is the CPU cost of initiating any communication call.
	PostCost sim.Duration
	// ProgressBase is the fixed cost of one Progress pass.
	ProgressBase sim.Duration
	// PerCompletion is the cost of retiring one completion (CQ drain,
	// descriptor recycle, handler dispatch).
	PerCompletion sim.Duration
	// MatchCost is the tag-matching cost for Direct traffic.
	MatchCost sim.Duration
	// CopyPsPerByte prices the Buffered protocol's copies.
	CopyPsPerByte int64
	// HeaderBytes frames payload-bearing messages; CtrlBytes sizes
	// rendezvous control messages.
	HeaderBytes int64
	CtrlBytes   int64
	// MTSendCost is the extra per-call cost of a concurrent (multithreaded)
	// send — an atomic reservation rather than MPI's global lock.
	MTSendCost sim.Duration

	// Metrics is the registry every endpoint registers its instruments in
	// (send/receive/retry counters, packet-pool and direct-slot occupancy,
	// staged completion-queue depth, progress-call count). Nil gets a
	// private registry; stack.Build shares one across every layer.
	Metrics *metrics.Registry
}

// DefaultConfig returns a cost model for a lean communication library: LCI
// is a thin layer over the NIC, so software costs sit well below the MPI
// stack's (compare mpi.DefaultConfig).
func DefaultConfig() Config {
	return Config{
		ImmediateMax:  64,
		BufferedMax:   12 << 10,
		SendPackets:   4096,
		MaxDirect:     1024,
		PostCost:      90 * sim.Nanosecond,
		ProgressBase:  60 * sim.Nanosecond,
		PerCompletion: 110 * sim.Nanosecond,
		MatchCost:     120 * sim.Nanosecond,
		CopyPsPerByte: 50,
		HeaderBytes:   32,
		CtrlBytes:     32,
		MTSendCost:    40 * sim.Nanosecond,
	}
}

func (c Config) copyCost(n int64) sim.Duration {
	if n <= 0 {
		return 0
	}
	return sim.Duration(n * c.CopyPsPerByte)
}

// SendCost is the caller-side CPU cost of posting a send of n bytes.
func (c Config) SendCost(n int64) sim.Duration {
	if n <= c.BufferedMax {
		return c.PostCost + c.copyCost(n)
	}
	return c.PostCost
}

// Request is the completion descriptor delivered to synchronizers, queues,
// and handlers (LCI_request_t).
//
// A message arrival (Immediate or Buffered, delivered to the SetMsgComp
// target) carries Data and Extra in a pooled packet that the Request holds
// until Endpoint.Free returns it; afterwards both buffers may be reused for
// another message. A Direct or send completion holds no packet and must not
// be freed.
type Request struct {
	Rank    int     // peer rank
	Tag     int     // message tag
	Data    buf.Buf // received data (receives) or the sent buffer (sends)
	Extra   buf.Buf // second segment of an iovec send (Sendmx), if any
	UserCtx any     // context supplied when the operation was posted

	pkt *packet // message arrivals: the packet holding Data and Extra
	gen uint32  // pkt.gen at delivery; a mismatch means freed already
}

// Handler is a completion handler invoked from Progress.
type Handler func(Request)

// Sync is a synchronizer: a single-use completion flag analogous to an MPI
// request that can only be tested, not matched.
type Sync struct {
	done bool
	req  Request
}

// Test reports completion and, when complete, the completion descriptor.
func (s *Sync) Test() (Request, bool) { return s.req, s.done }

func (s *Sync) signal(r Request) {
	if s.done {
		panic("lci: synchronizer signaled twice")
	}
	s.done, s.req = true, r
}

// CQ is a completion queue.
type CQ struct {
	items []Request
}

// Pop removes the oldest completion, reporting whether one existed.
func (q *CQ) Pop() (Request, bool) {
	if len(q.items) == 0 {
		return Request{}, false
	}
	r := q.items[0]
	copy(q.items, q.items[1:])
	q.items = q.items[:len(q.items)-1]
	return r, true
}

// Len returns the number of queued completions.
func (q *CQ) Len() int { return len(q.items) }

func (q *CQ) push(r Request) { q.items = append(q.items, r) }

// Comp is a completion target: *Sync, *CQ, or Handler. A nil Comp discards
// the completion.
type Comp any

func deliver(c Comp, r Request) {
	switch t := c.(type) {
	case nil:
	case *Sync:
		t.signal(r)
	case *CQ:
		t.push(r)
	case Handler:
		t(r)
	default:
		panic("lci: unsupported completion target")
	}
}
