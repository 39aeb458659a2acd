package simfabric

import (
	"time"

	"rftp/internal/hostmodel"
	"rftp/internal/verbs"
)

// QP is a simulated reliably-connected queue pair: the shared RC model
// (verbs.RCQP) moved in virtual time. Everything runs on the scheduler
// goroutine, so nothing here locks.
type QP struct {
	fabric *Fabric
	dev    *Device
	peer   *QP
	rc     verbs.RCQP[*message, *message]
}

// message is an in-flight work request (a snapshot of the posted WR).
// Messages are recycled through the fabric freelist; to, compStatus and
// rnrArmed exist so the hot-path scheduler posts need no closures.
type message struct {
	wr        verbs.SendWR
	from      *QP
	to        *QP // peer NIC the message is in flight toward
	rnrLeft   int
	delivered bool // answered at the sender: delivered, refused or given up on
	rnrArmed  bool // an RNR timer was scheduled; message is never recycled
	// compStatus carries the sender-side completion status across the
	// ACK propagation delay.
	compStatus verbs.Status
	// postedAt is the virtual time PostSend accepted the WR, feeding the
	// wire-entry/exit histograms (queue delay and ack round trip).
	postedAt time.Duration
}

// runArrive and runFinishSend are the closure-free scheduler callbacks
// for the two per-message hops (wire arrival, ACK return).
func runArrive(a any) {
	m := a.(*message)
	m.to.arrive(m)
}

func runFinishSend(a any) {
	m := a.(*message)
	m.from.finishSend(m)
}

// CreateQP implements verbs.Device.
func (d *Device) CreateQP(cfg verbs.QPConfig) (verbs.QP, error) {
	qp := &QP{fabric: d.fabric, dev: d}
	if err := qp.rc.Init(cfg); err != nil {
		return nil, err
	}
	d.fabric.nextQP++
	qp.rc.ID = d.fabric.nextQP
	qp.rc.Cost = d.chargeCompletion
	return qp, nil
}

// ConnectQPs joins two queue pairs created on linked devices.
func (f *Fabric) ConnectQPs(a, b verbs.QP) error {
	qa, ok1 := a.(*QP)
	qb, ok2 := b.(*QP)
	if !ok1 || !ok2 {
		return verbs.ErrBadWR
	}
	if qa.dev.peer != qb.dev {
		return verbs.ErrNotConnected
	}
	qa.peer, qb.peer = qb, qa
	qa.rc.Connect()
	qb.rc.Connect()
	return nil
}

// ID implements verbs.QP.
func (q *QP) ID() verbs.QPID { return q.rc.ID }

func (q *QP) chargeCaller(cost time.Duration) {
	if t, ok := q.rc.SendCQ.Loop().(*hostmodel.Thread); ok {
		t.Charge(cost)
	}
}

// PostSend implements verbs.QP. The posting CPU cost is billed to the
// send CQ's loop thread (the protocol always posts from that thread).
func (q *QP) PostSend(wr *verbs.SendWR) error {
	if err := q.rc.CheckSend(wr); err != nil {
		return err
	}
	m := q.fabric.takeMessage()
	m.wr = *wr
	m.from = q
	m.rnrLeft = q.rc.Cfg.RNRRetry
	m.postedAt = q.fabric.sched.Now()
	if err := q.rc.Post(m, wr); err != nil {
		q.fabric.putMessage(m)
		return err
	}
	q.chargeCaller(q.dev.chargePost())
	q.settle()
	return nil
}

// PostRecv implements verbs.QP.
func (q *QP) PostRecv(wr *verbs.RecvWR) error {
	if err := q.rc.PostRecv(wr); err != nil {
		return err
	}
	q.chargeCaller(q.dev.chargePost())
	// An already-arrived message may be waiting for this buffer.
	q.settle()
	return nil
}

// settle runs both queues after anything that may have moved them:
// arrivals the receive queue is done with are answered, and the send
// queue releases what it can onto the wire (or, once the QP has failed
// or closed, flushes everything).
func (q *QP) settle() {
	for m, st, ok := q.rc.Deliver(); ok; m, st, ok = q.rc.Deliver() {
		q.answer(m, st)
	}
	for m, ok := q.rc.Next(); ok; m, ok = q.rc.Next() {
		q.transmit(m)
	}
}

// fail moves the QP to Error and flushes it.
func (q *QP) fail() {
	q.rc.Fail()
	q.settle()
}

// transmit serializes the message onto the egress port and schedules its
// arrival at the peer NIC.
func (q *QP) transmit(m *message) {
	d := q.dev
	var wire int
	if m.wr.Op == verbs.OpRead {
		wire = d.wireBytes(16) // READ request packet
	} else {
		wire = d.wireBytes(m.wr.Length())
	}
	d.TxWRs++
	d.TxBytes += uint64(wire)
	d.Telemetry.Posted(m.wr.Op, wire)
	if m.wr.Op == verbs.OpSend {
		d.Telemetry.Ctrl(m.wr.Length())
	}
	// Wire-entry stamp: delay between posting and the egress port
	// accepting the WR (stall behind the READ depth limit, mostly).
	d.Telemetry.WireQueue(q.fabric.sched.Now() - m.postedAt)
	lastBit := d.port.transmit(wire)
	if d.bbPort != nil {
		lastBit = d.bbPort.transmitAt(lastBit, wire)
	}
	arriveAt := lastBit + d.profile.TxPerWR + d.link.PropDelay + d.peer.profile.RxPerWR
	m.to = q.peer
	q.fabric.sched.PostArg(arriveAt, runArrive, m)
}

// completeSend delivers the sender-side completion after the ACK returns
// (half an RTT after the responder handled the message). Only for
// OpSend/OpWrite/OpWriteImm; READs complete via readCompleted.
func (q *QP) completeSend(m *message, status verbs.Status) {
	m.compStatus = status
	q.fabric.sched.PostArgAfter(q.dev.link.PropDelay, runFinishSend, m)
}

// finishSend runs at ACK arrival: it reaps the send, dispatches the
// completion, and recycles the message.
func (q *QP) finishSend(m *message) {
	q.dev.Telemetry.Completed(m.wr.Op)
	q.dev.Telemetry.WireRTT(q.fabric.sched.Now() - m.postedAt)
	q.rc.Complete(&m.wr, m.compStatus)
	q.fabric.putMessage(m)
	q.settle()
}

// arrive is the peer NIC's handling of an inbound message. Runs in NIC
// context (scheduler event; no host CPU except completion dispatches).
func (q *QP) arrive(m *message) {
	if !q.rc.Ready() {
		// Receiver is gone: NAK back to the sender.
		if m.wr.Op == verbs.OpRead {
			m.from.readCompleted(m, nil, verbs.StatusAborted)
		} else {
			m.from.completeSend(m, verbs.StatusAborted)
		}
		return
	}
	switch m.wr.Op {
	case verbs.OpWrite:
		if q.placeWrite(m) {
			m.from.completeSend(m, verbs.StatusSuccess)
		}
	case verbs.OpWriteImm:
		if q.placeWrite(m) {
			q.park(m)
		}
	case verbs.OpSend:
		q.park(m)
	case verbs.OpRead:
		q.handleReadRequest(m)
	}
}

// placeWrite validates and applies an RDMA WRITE to the target region.
// Returns false (after NAKing the sender) on access violations.
func (q *QP) placeWrite(m *message) bool {
	d := q.dev
	if _, _, err := d.space.Place(m.wr.Remote, m.wr.Data, m.wr.ModelBytes); err != nil {
		q.fail()
		m.from.completeSend(m, verbs.StatusRemoteAccessError)
		return false
	}
	d.RxWRs++
	d.RxBytes += uint64(m.wr.Length())
	d.Telemetry.Rx(m.wr.Length())
	return true
}

// park routes a receive-consuming arrival (SEND or the notification half
// of WRITE_WITH_IMM) through the RNR state machine.
func (q *QP) park(m *message) {
	if q.rc.Park(m, m.wr.Op, m.wr.Data, m.wr.Length(), m.wr.Imm) {
		q.scheduleRNRRetry(m)
		return
	}
	q.settle()
}

// answer completes a receive-consuming arrival at its sender once the
// receive queue is done with it.
func (q *QP) answer(m *message, st verbs.Status) {
	if st == verbs.StatusSuccess && m.wr.Op == verbs.OpSend {
		q.dev.RxWRs++
		q.dev.RxBytes += uint64(m.wr.Length())
		q.dev.Telemetry.Rx(m.wr.Length())
	}
	m.delivered = true
	m.from.completeSend(m, st)
}

// scheduleRNRRetry models the receiver-not-ready NAK/retry loop: each
// retry waits RNRTimer; when the budget is exhausted the message is
// dropped and the sender completes with StatusRNRRetryExceeded. A
// message answered in the meantime (a receive was posted, or the QP
// failed or closed) ends the loop.
func (q *QP) scheduleRNRRetry(m *message) {
	q.dev.RNRNaks++
	q.dev.Telemetry.RNR()
	if m.rnrLeft <= 0 {
		q.rc.Unpark()
		m.from.completeSend(m, verbs.StatusRNRRetryExceeded)
		return
	}
	m.rnrLeft--
	m.rnrArmed = true
	q.fabric.sched.After(q.dev.profile.RNRTimer, func() {
		if !m.delivered {
			q.scheduleRNRRetry(m)
		}
	})
}

// handleReadRequest serves an inbound RDMA READ at the responder NIC. No
// responder host CPU is charged (one-sided semantics); responder NIC
// resources bound concurrent responses.
func (q *QP) handleReadRequest(m *message) {
	d := q.dev
	if d.inReads >= d.profile.MaxOutstandingReads {
		d.rdQueue = append(d.rdQueue, func() { q.handleReadRequest(m) })
		return
	}
	_, view, err := d.space.Fetch(m.wr.Remote, m.wr.ReadLen)
	if err != nil {
		q.fail()
		m.from.readCompleted(m, nil, verbs.StatusRemoteAccessError)
		return
	}
	d.inReads++
	wire := d.wireBytes(m.wr.ReadLen)
	d.TxWRs++
	d.TxBytes += uint64(wire)
	d.Telemetry.Tx(wire)
	lastBit := d.port.transmit(wire)
	if d.bbPort != nil {
		lastBit = d.bbPort.transmitAt(lastBit, wire)
	}
	// The responder's READ context frees when the response has been
	// transmitted (last bit out), not when it lands at the initiator:
	// holding the slot across the propagation delay would cap pull-mode
	// throughput at MaxOutstandingReads blocks per RTT on long paths,
	// which is not how IRD works — the context tracks response
	// generation, and in-flight responses are the wire's problem.
	releaseAt := lastBit + d.profile.TxPerWR
	arriveAt := releaseAt + d.link.PropDelay + m.from.dev.profile.RxPerWR
	data := append([]byte(nil), view...)
	q.fabric.sched.At(releaseAt, func() {
		d.inReads--
		if len(d.rdQueue) > 0 {
			next := d.rdQueue[0]
			d.rdQueue = d.rdQueue[1:]
			next()
		}
	})
	q.fabric.sched.At(arriveAt, func() {
		m.from.readCompleted(m, data, verbs.StatusSuccess)
	})
}

// readCompleted lands READ response data at the initiator.
func (q *QP) readCompleted(m *message, data []byte, status verbs.Status) {
	q.dev.Telemetry.Completed(verbs.OpRead)
	q.dev.Telemetry.WireRTT(q.fabric.sched.Now() - m.postedAt)
	if status == verbs.StatusSuccess && m.wr.Local != nil {
		m.wr.Local.PlaceLocal(m.wr.LocalOffset, data)
		q.dev.RxWRs++
		q.dev.RxBytes += uint64(m.wr.ReadLen)
		q.dev.Telemetry.Rx(m.wr.ReadLen)
	}
	q.rc.Complete(&m.wr, status)
	q.fabric.putMessage(m)
	q.settle()
}

// Close implements verbs.QP.
func (q *QP) Close() error {
	if err := q.rc.Close(); err != nil {
		return err
	}
	q.settle()
	return nil
}

var _ verbs.QP = (*QP)(nil)
