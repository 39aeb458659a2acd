package verbs

import (
	"sync/atomic"
	"time"

	"rftp/internal/ringq"
)

// Queue-pair states. A QP is created in qpInit, its fabric moves it to
// qpReady when it pairs it with a peer, and it leaves service for good
// through qpError (a failed completion) or qpClosed (Close).
const (
	qpInit int32 = iota
	qpReady
	qpError
	qpClosed
)

// RCQP is the fabric-independent half of a reliably-connected queue
// pair, the one copy of the RC rules every fabric runs: the QP state,
// work-request validation, the send queue with its MaxSend slots and
// MaxRDAtomic READ depth, the receive queue with the arrivals parked on
// it, and the error rule. A fabric holds one RCQP per QP and supplies
// only the transport: it puts released WRs on its wire, calls Complete
// when the wire is done with one, parks the SENDs and WRITE_IMMs that
// reach it, and answers each arrival Deliver hands back at its sender.
//
// The error rule: a failed completion moves the QP to Error. The failing
// WR completes first; then every WR still queued completes StatusFlushed
// in posting order, the posted receives flush, and each parked arrival
// is refused at its sender with StatusAborted. Close does the same, with
// state Closed. WRs already on the wire still complete through the
// transport.
//
// RCQP holds no lock. Its send side (Post, Next, Complete) runs under
// the fabric's send lock and its receive side (PostRecv, Park, Deliver,
// Unpark) under its receive lock; the state is atomic, so CheckSend,
// Ready, Fail and Close need neither. It allocates nothing per WR: S is
// the fabric's in-flight message type and A its arrival type, which it
// stores by value and never looks inside.
type RCQP[S, A any] struct {
	ID     QPID
	Cfg    QPConfig
	SendCQ *UpcallCQ
	RecvCQ *UpcallCQ
	// Cost prices dispatching a completion on a CQ's loop (a modeled
	// fabric's CPU charge); nil dispatches for free. Flushes are free.
	Cost func(Loop) time.Duration

	state atomic.Int32

	// Send side.
	slots  int // posted WRs not yet completed, at most Cfg.MaxSend
	reads  int // READs released and not yet completed, at most Cfg.MaxRDAtomic
	queued ringq.Ring[queuedWR[S]]

	// Receive side.
	recvs  ringq.Ring[RecvWR]
	parked ringq.Ring[arrival[A]]
}

// queuedWR is a posted WR the send queue has not released yet.
type queuedWR[S any] struct {
	m    S
	wrid uint64
	op   Opcode
}

// arrival is a receive-consuming message waiting for a posted receive:
// n wire bytes, of which data are the real ones to place (nil for a
// WRITE_IMM, whose payload the transport already placed).
type arrival[A any] struct {
	m    A
	op   Opcode
	data []byte
	n    int
	imm  uint32
}

// Init checks cfg as every fabric's CreateQP must — an RC queue pair on
// UpcallCQ completion queues — and takes the normalized config. The
// fabric numbers the QP (ID) once Init succeeds.
func (q *RCQP[S, A]) Init(cfg QPConfig) error {
	sendCQ, ok1 := cfg.SendCQ.(*UpcallCQ)
	recvCQ, ok2 := cfg.RecvCQ.(*UpcallCQ)
	if cfg.Type != RC || !ok1 || !ok2 {
		return ErrBadWR
	}
	q.Cfg, q.SendCQ, q.RecvCQ = cfg.Normalize(), sendCQ, recvCQ
	return nil
}

// Connect readies the QP once its fabric has paired it with a peer.
func (q *RCQP[S, A]) Connect() { q.state.Store(qpReady) }

// Ready reports whether the QP is connected and has neither failed nor
// closed. A transport refuses whatever reaches a QP that is not ready.
func (q *RCQP[S, A]) Ready() bool { return q.state.Load() == qpReady }

// Fail moves a ready QP to Error, as a responder does on a remote access
// violation. The fabric then flushes: Deliver on the receive side, Next
// on the send side.
func (q *RCQP[S, A]) Fail() { q.state.CompareAndSwap(qpReady, qpError) }

// Close takes the QP out of service for good, or returns ErrQPClosed if
// it already was. The fabric then flushes as after Fail.
func (q *RCQP[S, A]) Close() error {
	if q.state.Swap(qpClosed) == qpClosed {
		return ErrQPClosed
	}
	return nil
}

// postErr is the error a post meets in the QP's current state.
func (q *RCQP[S, A]) postErr() error {
	switch q.state.Load() {
	case qpInit:
		return ErrNotConnected
	case qpError:
		return ErrQPError
	case qpClosed:
		return ErrQPClosed
	}
	return nil
}

// CheckSend validates a send WR before the fabric builds its message:
// the QP must be ready, and the opcode's fields must describe a
// non-empty transfer (a READ, a window of its local region).
func (q *RCQP[S, A]) CheckSend(wr *SendWR) error {
	if err := q.postErr(); err != nil {
		return err
	}
	switch wr.Op {
	case OpSend, OpWrite, OpWriteImm:
		if wr.Length() <= 0 {
			return ErrBadWR
		}
	case OpRead:
		if wr.ReadLen <= 0 || wr.Local == nil || wr.LocalOffset < 0 ||
			wr.LocalOffset+wr.ReadLen > wr.Local.Len {
			return ErrBadWR
		}
	default:
		return ErrBadWR
	}
	return nil
}

// Post takes a send-queue slot for m, the fabric's message for the
// checked wr, and queues it behind every earlier WR. Send side; the
// fabric then runs Next.
func (q *RCQP[S, A]) Post(m S, wr *SendWR) error {
	if err := q.postErr(); err != nil {
		return err
	}
	if q.slots >= q.Cfg.MaxSend {
		return ErrSendQueueFull
	}
	q.slots++
	q.queued.Push(queuedWR[S]{m: m, wrid: wr.WRID, op: wr.Op})
	return nil
}

// Next releases the oldest queued WR to the wire, or reports none. A
// READ waits while Cfg.MaxRDAtomic READs are out, and every WR behind it
// waits too: an RC send queue is ordered. Once the QP has failed or
// closed, Next instead flushes every queued WR, in posting order. Send
// side; the fabric calls it until it reports none after every Post and
// Complete.
func (q *RCQP[S, A]) Next() (m S, ok bool) {
	if !q.Ready() {
		for e, ok := q.queued.Pop(); ok; e, ok = q.queued.Pop() {
			q.slots--
			q.SendCQ.Dispatch(0, WC{WRID: e.wrid, Status: StatusFlushed, Op: e.op, QP: q.ID})
		}
		return m, false
	}
	e, ok := q.queued.Peek()
	if !ok || e.op == OpRead && q.reads >= q.Cfg.MaxRDAtomic {
		return m, false
	}
	if e.op == OpRead {
		q.reads++
	}
	q.queued.Pop()
	return e.m, true
}

// Complete retires a released WR the wire is done with: it frees the
// WR's send-queue slot (and READ depth) and dispatches its completion.
// A successful unsignaled WR completes silently; any other status
// completes and moves the QP to Error, after which Next flushes what is
// still queued. Send side.
func (q *RCQP[S, A]) Complete(wr *SendWR, st Status) {
	q.slots--
	if wr.Op == OpRead {
		q.reads--
	}
	if st != StatusSuccess {
		q.Fail()
	} else if wr.NoCompletion {
		return
	}
	q.SendCQ.Dispatch(q.cost(q.SendCQ), WC{WRID: wr.WRID, Status: st, Op: wr.Op, ByteLen: wr.Length(), QP: q.ID})
}

// PostRecv validates a receive WR and queues a copy of it. Receive side;
// the fabric then runs Deliver.
func (q *RCQP[S, A]) PostRecv(wr *RecvWR) error {
	switch q.state.Load() {
	case qpError:
		return ErrQPError
	case qpClosed:
		return ErrQPClosed
	}
	if wr.MR == nil || wr.Len <= 0 || wr.Offset < 0 || wr.Offset+wr.Len > wr.MR.Len {
		return ErrBadWR
	}
	if q.recvs.Len() >= q.Cfg.MaxRecv {
		return ErrRecvQueueFull
	}
	q.recvs.Push(*wr)
	return nil
}

// Park holds m, an arrival that consumes a receive, until Deliver
// matches it with one: a SEND of n wire bytes whose real bytes are data,
// or a WRITE_IMM of n bytes the transport has already placed (data nil).
// It reports whether no receive was posted: the receiver was not ready.
// Receive side.
func (q *RCQP[S, A]) Park(m A, op Opcode, data []byte, n int, imm uint32) (rnr bool) {
	q.parked.Push(arrival[A]{m: m, op: op, data: data, n: n, imm: imm})
	return q.recvs.Len() == 0
}

// Unpark drops the oldest parked arrival, for a transport that gives up
// on it (simfabric's RNR retries running out, which happens in arrival
// order). Receive side.
func (q *RCQP[S, A]) Unpark() { q.parked.Pop() }

// Deliver finishes the oldest parked arrival and returns it with the
// status its sender must see; ok is false when there is nothing to
// finish. While the QP is ready an arrival consumes the oldest posted
// receive: a SEND is placed into it, a WRITE_IMM only notifies. A SEND
// longer than its receive fails that receive (StatusLocalError), its
// sender (StatusRemoteAccessError) and the QP. Once the QP has failed or
// closed, Deliver flushes the posted receives and refuses each parked
// arrival with StatusAborted. Receive side; the fabric calls it until it
// reports none and answers each arrival at its sender.
func (q *RCQP[S, A]) Deliver() (m A, st Status, ok bool) {
	if s := q.state.Load(); s == qpError || s == qpClosed {
		for r, ok := q.recvs.Pop(); ok; r, ok = q.recvs.Pop() {
			q.RecvCQ.Dispatch(0, WC{WRID: r.WRID, Status: StatusFlushed, Op: OpRecv, QP: q.ID})
		}
		a, ok := q.parked.Pop()
		return a.m, StatusAborted, ok
	}
	if q.parked.Len() == 0 || q.recvs.Len() == 0 {
		return m, StatusSuccess, false
	}
	a, _ := q.parked.Pop()
	r, _ := q.recvs.Pop()
	wc := WC{WRID: r.WRID, Op: a.op, ByteLen: a.n, Imm: a.imm, QP: q.ID}
	st = StatusSuccess
	if a.op == OpSend {
		wc.Op = OpRecv
		if a.n > r.Len {
			q.Fail()
			wc.Status, st = StatusLocalError, StatusRemoteAccessError
		} else {
			r.MR.PlaceLocal(r.Offset, a.data)
			wc.Data = r.MR.ViewLocal(r.Offset, len(a.data))
		}
	}
	q.RecvCQ.Dispatch(q.cost(q.RecvCQ), wc)
	return a.m, st, true
}

// cost prices a completion dispatched on cq.
func (q *RCQP[S, A]) cost(cq *UpcallCQ) time.Duration {
	if q.Cost == nil {
		return 0
	}
	return q.Cost(cq.Loop())
}
