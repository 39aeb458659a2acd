// Package verbs defines an OFED-like RDMA verbs interface in pure Go.
//
// The types mirror the native IB verbs the paper programs against
// (libibverbs): protection domains, registered memory regions with
// lkey/rkey pairs, completion queues, reliably-connected queue pairs, and
// asynchronous work requests for SEND, RDMA WRITE, RDMA WRITE WITH
// IMMEDIATE, and RDMA READ. Completions are delivered as upcalls on a
// host Loop, mirroring the completion-channel event style the middleware
// uses ("the threads handle data transfer and the completion event
// asynchronously").
//
// Three fabrics implement Device: a discrete-event simulated fabric
// (internal/fabric/simfabric), an in-process channel fabric
// (internal/fabric/chanfabric) and a TCP socket fabric
// (internal/fabric/netfabric). The protocol core is written purely
// against this package, so the same code runs on all three. The queue
// pair's semantics live here once, not in the fabrics: RCQP holds the
// RC rules (states, work-request validation, send and receive queues,
// the error and flush rule) and UpcallCQ the completion queue. A fabric
// is a transport that moves a QP's messages and calls into both. The
// real-byte fabrics deliver onto WallLoop, a goroutine running posted
// closures in wall-clock time.
//
// Payload modeling: a work request carries Data (real bytes, always used
// for protocol headers) plus ModelBytes (additional modeled payload for
// simulation-scale transfers). Wire length is len(Data)+ModelBytes. Real
// fabrics reject ModelBytes != 0.
package verbs

import (
	"errors"
	"fmt"
	"time"
)

// Opcode identifies the operation of a work request or completion.
type Opcode uint8

// Work request opcodes.
const (
	OpSend Opcode = iota + 1
	OpWrite
	OpWriteImm
	OpRead
	OpRecv // appears only in completions
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpWrite:
		return "RDMA_WRITE"
	case OpWriteImm:
		return "RDMA_WRITE_WITH_IMM"
	case OpRead:
		return "RDMA_READ"
	case OpRecv:
		return "RECV"
	default:
		return fmt.Sprintf("Opcode(%d)", uint8(o))
	}
}

// Access flags control what remote peers may do to a memory region.
type Access uint8

// Access flag bits.
const (
	AccessLocalWrite Access = 1 << iota
	AccessRemoteWrite
	AccessRemoteRead
)

// Status is the completion status of a work request.
type Status uint8

// Completion status codes.
const (
	StatusSuccess Status = iota
	StatusRNRRetryExceeded
	StatusRemoteAccessError
	StatusLocalError
	StatusFlushed
	StatusAborted
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "success"
	case StatusRNRRetryExceeded:
		return "RNR retry exceeded"
	case StatusRemoteAccessError:
		return "remote access error"
	case StatusLocalError:
		return "local error"
	case StatusFlushed:
		return "flushed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Errors returned by verbs operations.
var (
	ErrQPClosed      = errors.New("verbs: queue pair closed")
	ErrQPError       = errors.New("verbs: queue pair in error state")
	ErrNotConnected  = errors.New("verbs: queue pair not connected")
	ErrSendQueueFull = errors.New("verbs: send queue full")
	ErrRecvQueueFull = errors.New("verbs: receive queue full")
	ErrBadWR         = errors.New("verbs: malformed work request")
	ErrModelBytes    = errors.New("verbs: modeled payload not supported by this fabric")
)

// Loop is the execution context completions and timers are delivered on.
// Implementations serialize all posted closures (one event-loop thread
// per host, matching the paper's event-driven design). The cost argument
// is the CPU time the work consumes; real-time loops (WallLoop) ignore
// it, modeled loops (hostmodel's threads) charge it to the thread.
type Loop interface {
	Now() time.Duration
	Post(cost time.Duration, fn func())
	After(d time.Duration, fn func())
}

// QPID names a queue pair uniquely within a fabric.
type QPID uint64

// RemoteAddr addresses memory on the remote host for one-sided
// operations: an absolute virtual address plus the rkey advertised by
// the owner of the region.
type RemoteAddr struct {
	Addr uint64
	RKey uint32
}

// SendWR is a send-queue work request.
type SendWR struct {
	// WRID is an application cookie echoed in the completion.
	WRID uint64
	// Op is one of OpSend, OpWrite, OpWriteImm, OpRead.
	Op Opcode
	// Data holds real bytes to transmit (for OpRead it must be nil).
	// Protocol headers always travel as real bytes.
	Data []byte
	// ModelBytes is additional modeled payload length (simulated fabrics
	// only). The bytes are accounted for bandwidth and CPU but never
	// materialized.
	ModelBytes int
	// Remote addresses the target region for OpWrite/OpWriteImm/OpRead.
	Remote RemoteAddr
	// Imm is delivered to the peer for OpSend and OpWriteImm.
	Imm uint32
	// Local is the local destination region for OpRead; LocalOffset the
	// offset within it.
	Local       *MR
	LocalOffset int
	// ReadLen is the number of bytes to fetch for OpRead.
	ReadLen int
	// NoCompletion suppresses the local success completion (unsignaled
	// WR); errors always complete.
	NoCompletion bool
}

// Length returns the wire payload length of the request.
func (wr *SendWR) Length() int {
	if wr.Op == OpRead {
		return wr.ReadLen
	}
	return len(wr.Data) + wr.ModelBytes
}

// RecvWR is a receive-queue work request: a registered region (or a
// window of one) the NIC may place an incoming SEND into.
type RecvWR struct {
	WRID   uint64
	MR     *MR
	Offset int
	Len    int
}

// WC is a work completion.
type WC struct {
	WRID   uint64
	Status Status
	// Op is the opcode of the completed WR; receive completions carry
	// OpRecv (for SEND) or OpWriteImm (for RDMA WRITE WITH IMMEDIATE).
	Op Opcode
	// ByteLen is the total wire length (real + modeled bytes).
	ByteLen int
	// Imm carries the immediate value on OpRecv/OpWriteImm completions.
	Imm uint32
	// Data exposes the real received bytes for receive completions (a
	// view into the posted MR's backing store).
	Data []byte
	// QP identifies the local queue pair.
	QP QPID
}

// CQ is a completion queue. A handler must be attached before any
// completion can be generated; completions are dispatched serialized on
// the loop supplied at creation.
type CQ interface {
	// SetHandler installs the completion upcall.
	SetHandler(fn func(WC))
	// Loop returns the loop completions are dispatched on.
	Loop() Loop
}

// QPType is the transport type of a queue pair. Only reliably-connected
// queue pairs are supported, matching the paper's design choice
// ("considering the requirements of performance and reliability, we
// selected RC queue pairs"). UD is intentionally absent.
type QPType uint8

// Queue pair types.
const (
	RC QPType = iota
)

// QPConfig configures queue pair creation.
type QPConfig struct {
	PD     *PD
	SendCQ CQ
	RecvCQ CQ
	Type   QPType
	// MaxSend and MaxRecv bound the send/receive queue depths.
	MaxSend int
	MaxRecv int
	// MaxRDAtomic bounds outstanding RDMA READ requests (the initiator
	// depth). Hardware typically allows 4-16; this is what limits READ
	// pipelining in the paper's Section III measurements.
	MaxRDAtomic int
	// RNRRetry is how many times a SEND finding no posted receive is
	// retried before failing with StatusRNRRetryExceeded.
	RNRRetry int
}

// Normalize applies the defaults for zero-valued fields.
func (c QPConfig) Normalize() QPConfig {
	if c.MaxSend <= 0 {
		c.MaxSend = 256
	}
	if c.MaxRecv <= 0 {
		c.MaxRecv = 256
	}
	if c.MaxRDAtomic <= 0 {
		c.MaxRDAtomic = 4
	}
	if c.RNRRetry == 0 {
		c.RNRRetry = 7
	}
	return c
}

// QP is a queue pair endpoint.
type QP interface {
	ID() QPID
	// PostSend enqueues a send-queue work request. It copies wr (not
	// wr.Data), so the caller may reuse the WR once PostSend returns.
	PostSend(wr *SendWR) error
	// PostRecv enqueues a receive buffer. It copies wr, so the caller may
	// reuse the WR once PostRecv returns.
	PostRecv(wr *RecvWR) error
	// Close transitions the QP out of service: queued WRs and posted
	// receives complete with StatusFlushed, and arrivals parked for a
	// receive are refused at their senders (see RCQP).
	Close() error
}

// Device is one RDMA-capable network interface.
type Device interface {
	// Name identifies the device (e.g. "roce0", "ib0", "sim0").
	Name() string
	// AllocPD allocates a protection domain.
	AllocPD() *PD
	// CreateCQ creates a completion queue whose handler runs on loop.
	CreateCQ(loop Loop, depth int) CQ
	// CreateQP creates a queue pair. The QP must be connected through
	// the fabric's own rendezvous mechanism before use.
	CreateQP(cfg QPConfig) (QP, error)
	// RegisterMR registers buf for DMA and returns the region.
	RegisterMR(pd *PD, buf []byte, access Access) (*MR, error)
	// RegisterModelMR registers a modeled region of the given length
	// backed by only shadow real bytes (the prefix that protocol headers
	// land in). Simulated fabrics only.
	RegisterModelMR(pd *PD, length, shadow int, access Access) (*MR, error)
}
