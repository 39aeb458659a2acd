package netfabric

import (
	"sync"
	"time"

	"rftp/internal/verbs"
)

// QP is a queue pair bound to a channel of the device's TCP connection:
// the shared RC model (verbs.RCQP) carried by frames. A posted WR waits
// in the model as a copy of itself until released; an arrival waits as
// its frame.
type QP struct {
	dev     *Device
	channel uint32
	rc      verbs.RCQP[verbs.SendWR, *frame]

	// sendMu guards rc's send side and serializes transmission, so frames
	// leave in posting order; recvMu guards rc's receive side. Neither is
	// held while taking the other.
	sendMu   sync.Mutex
	recvMu   sync.Mutex
	settleFn func() // settle, bound once so receive paths allocate nothing
}

// CreateQP implements verbs.Device.
func (d *Device) CreateQP(cfg verbs.QPConfig) (verbs.QP, error) {
	qp := &QP{dev: d}
	if err := qp.rc.Init(cfg); err != nil {
		return nil, err
	}
	qp.settleFn = qp.settle
	d.mu.Lock()
	d.nextQP++
	qp.rc.ID = d.nextQP
	d.mu.Unlock()
	return qp, nil
}

// BindQP attaches a QP to a channel id. Both peers must bind matching
// channel ids (core's Endpoint.Bind numbers them). Frames that arrived
// early are replayed. The first call starts the device's socket reader
// and writer, so fields set before it (Telemetry) need no other
// synchronization; until then the peer's frames wait in the socket.
func (d *Device) BindQP(q verbs.QP, channel uint32) error {
	qp, ok := q.(*QP)
	if !ok || qp.dev != d {
		return verbs.ErrBadWR
	}
	d.mu.Lock()
	if _, dup := d.channels[channel]; dup {
		d.mu.Unlock()
		return verbs.ErrBadWR
	}
	qp.channel = channel
	qp.rc.Connect()
	d.channels[channel] = qp
	early := d.parked[channel]
	delete(d.parked, channel)
	d.mu.Unlock()
	for _, f := range early {
		qp.inbound(f)
	}
	d.start.Do(func() {
		go d.writer()
		go d.reader()
	})
	return nil
}

// ID implements verbs.QP.
func (q *QP) ID() verbs.QPID { return q.rc.ID }

// PostSend implements verbs.QP. The payload is NOT copied: the frame
// references wr.Data until it reaches the socket, honoring verbs
// ownership semantics (the caller owns the buffer again only when the
// completion fires).
func (q *QP) PostSend(wr *verbs.SendWR) error {
	if err := q.rc.CheckSend(wr); err != nil {
		return err
	}
	if wr.ModelBytes != 0 {
		return verbs.ErrModelBytes
	}
	q.sendMu.Lock()
	err := q.rc.Post(*wr, wr)
	q.kick()
	q.sendMu.Unlock()
	if err != nil {
		return err
	}
	q.dev.Telemetry.Posted(wr.Op, 0) // wire bytes counted at the framing layer
	if wr.Op == verbs.OpSend {
		q.dev.Telemetry.Ctrl(len(wr.Data))
	}
	return nil
}

// kick puts every WR the send queue releases on the wire, in posting
// order (once the QP has failed or closed, it flushes them instead).
// Runs under sendMu.
func (q *QP) kick() {
	for wr, ok := q.rc.Next(); ok; wr, ok = q.rc.Next() {
		q.transmit(&wr)
	}
}

// transmit frames a released WR and queues it for the writer. The ACK
// (or READ response) finds the WR again by the frame's token.
func (q *QP) transmit(wr *verbs.SendWR) {
	var postedNs int64
	if q.dev.Telemetry != nil {
		postedNs = time.Now().UnixNano()
	}
	tok := q.dev.registerToken(q, wr, postedNs)
	f := getFrame()
	f.channel, f.token, f.imm = q.channel, tok, wr.Imm
	f.postedNs = postedNs
	switch wr.Op {
	case verbs.OpSend:
		f.op = frSend
		f.payload = wr.Data
	case verbs.OpWrite:
		f.op = frWrite
		f.addr, f.rkey = wr.Remote.Addr, wr.Remote.RKey
		f.payload = wr.Data
	case verbs.OpWriteImm:
		f.op = frWriteImm
		f.addr, f.rkey = wr.Remote.Addr, wr.Remote.RKey
		f.payload = wr.Data
	case verbs.OpRead:
		f.op = frReadReq
		f.addr, f.rkey = wr.Remote.Addr, wr.Remote.RKey
		f.imm = uint32(wr.ReadLen)
	}
	if !q.dev.send(f) {
		// The device is closing: nothing will answer this WR.
		putFrame(f)
		q.dev.mu.Lock()
		delete(q.dev.tokens, tok)
		q.dev.mu.Unlock()
		q.rc.Complete(wr, verbs.StatusFlushed)
	}
}

// PostRecv implements verbs.QP. Parked arrivals are delivered on the
// receive loop.
func (q *QP) PostRecv(wr *verbs.RecvWR) error {
	q.recvMu.Lock()
	err := q.rc.PostRecv(wr)
	q.recvMu.Unlock()
	if err == nil {
		q.rc.RecvCQ.Loop().Post(0, q.settleFn)
	}
	return err
}

// inbound handles a data-bearing frame from the peer. Runs on the
// device reader goroutine; receive completions are delivered on the
// recv loop.
func (q *QP) inbound(f *frame) {
	if !q.rc.Ready() {
		q.ackTo(f, wsAccess)
		putFrame(f)
		return
	}
	switch f.op {
	case frWrite, frWriteImm:
		q.applyWrite(f)
	case frSend:
		q.park(f, verbs.OpSend)
	case frReadReq:
		q.serveRead(f)
		putFrame(f)
	default:
		putFrame(f)
	}
}

// applyWrite validates and places a one-sided write, then ACKs. The
// fast path placed the payload straight into the region at read time;
// the staged path (frames parked before BindQP) places it here. Either
// way the payload is released before any RNR parking, so stalled
// WRITE_IMM frames pin no memory.
func (q *QP) applyWrite(f *frame) {
	if !f.placed && !f.placeErr {
		if _, _, err := q.dev.space.Place(verbs.RemoteAddr{Addr: f.addr, RKey: f.rkey}, f.payload, 0); err != nil {
			f.placeErr = true
		} else {
			f.placed = true
			f.releasePayload()
		}
	}
	if f.placeErr {
		q.fail()
		q.ackTo(f, wsAccess)
		putFrame(f)
		return
	}
	if f.op == frWriteImm {
		q.park(f, verbs.OpWriteImm) // ACK after the imm notification consumes a receive
		return
	}
	q.ackTo(f, wsOK)
	putFrame(f)
}

// park queues a receive-consuming frame for the recv loop to deliver.
func (q *QP) park(f *frame, op verbs.Opcode) {
	q.recvMu.Lock()
	rnr := q.rc.Park(f, op, f.payload, f.paylen, f.imm)
	q.recvMu.Unlock()
	if rnr {
		q.dev.RNRStalls.Add(1)
		q.dev.Telemetry.RNR()
	}
	q.rc.RecvCQ.Loop().Post(0, q.settleFn)
}

// settle answers every arrival the receive queue is done with and, once
// the QP has failed or closed, flushes the send queue too. In service it
// runs on the recv loop only, which keeps the ACKs in order.
func (q *QP) settle() {
	for {
		q.recvMu.Lock()
		f, st, ok := q.rc.Deliver()
		q.recvMu.Unlock()
		if !ok {
			break
		}
		ws := uint8(wsOK)
		if st != verbs.StatusSuccess {
			ws = wsAccess
		}
		q.ackTo(f, ws)
		putFrame(f) // returns the staging buffer to the pool
	}
	if !q.rc.Ready() {
		q.sendMu.Lock()
		q.kick()
		q.sendMu.Unlock()
	}
}

// fail moves the QP to Error and flushes it.
func (q *QP) fail() {
	q.rc.Fail()
	q.settle()
}

// serveRead answers an inbound READ request. The response payload
// references the region's bytes directly (no copy); the writer drops
// the reference once the frame reaches the socket.
func (q *QP) serveRead(f *frame) {
	n := int(f.imm)
	_, view, err := q.dev.space.Fetch(verbs.RemoteAddr{Addr: f.addr, RKey: f.rkey}, n)
	resp := getFrame()
	resp.op, resp.channel, resp.token = frReadResp, q.channel, f.token
	if err != nil {
		q.fail()
		resp.status = wsAccess
	} else {
		resp.payload = view
	}
	if !q.dev.send(resp) {
		putFrame(resp)
	}
}

// ackTo acknowledges a data frame back to its sender.
func (q *QP) ackTo(f *frame, status uint8) {
	a := getFrame()
	a.op, a.channel, a.token, a.status = frAck, q.channel, f.token, status
	if !q.dev.send(a) {
		putFrame(a)
	}
}

// remoteAck completes a sent WR after the peer's ACK/READ response.
// Runs on the device reader goroutine. postedNs is the wire-entry stamp
// carried by the pending token (0 when telemetry is detached).
func (q *QP) remoteAck(wr *verbs.SendWR, f *frame, postedNs int64) {
	q.dev.Telemetry.Completed(wr.Op)
	if postedNs != 0 {
		q.dev.Telemetry.WireRTT(time.Duration(time.Now().UnixNano() - postedNs))
	}
	status := frameStatusToVerbs(f.status)
	if wr.Op == verbs.OpRead && status == verbs.StatusSuccess && wr.Local != nil && !f.placed {
		// Fallback: the response was staged (e.g. a truncated or
		// oversized reply); place it now.
		wr.Local.PlaceLocal(wr.LocalOffset, f.payload)
	}
	q.finish(wr, status)
}

// finish retires a WR the wire is done with and releases whatever its
// completion frees (a READ's depth) onto the wire.
func (q *QP) finish(wr *verbs.SendWR, status verbs.Status) {
	q.sendMu.Lock()
	q.rc.Complete(wr, status)
	q.kick()
	q.sendMu.Unlock()
	if status != verbs.StatusSuccess {
		q.settle()
	}
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
