package netfabric

import (
	"sync"
	"sync/atomic"
	"time"

	"rftp/internal/ringq"
	"rftp/internal/verbs"
)

type qpState = int32

const (
	stateInit int32 = iota
	stateReady
	stateError
	stateClosed
)

// QP is a queue pair bound to a channel of the device's TCP connection.
type QP struct {
	dev     *Device
	id      verbs.QPID
	cfg     verbs.QPConfig
	channel uint32
	state   atomic.Int32

	sendCQ *verbs.UpcallCQ
	recvCQ *verbs.UpcallCQ

	sendMu        sync.Mutex
	sqOutstanding int
	// READ initiator depth: posts beyond MaxRDAtomic park in rdWait
	// (still consuming a send-queue slot) and go on the wire one at a
	// time as earlier READs complete, matching hardware that queues
	// rather than rejects past the negotiated depth.
	rdOutstanding int
	rdWait        ringq.Ring[*verbs.SendWR]

	recvMu  sync.Mutex
	recvQ   ringq.Ring[*verbs.RecvWR]
	pending ringq.Ring[*frame] // SEND/WRITE_IMM frames awaiting a posted receive
}

// CreateQP implements verbs.Device.
func (d *Device) CreateQP(cfg verbs.QPConfig) (verbs.QP, error) {
	if cfg.Type != verbs.RC {
		return nil, verbs.ErrBadWR
	}
	cfg = cfg.Normalize()
	sendCQ, ok1 := cfg.SendCQ.(*verbs.UpcallCQ)
	recvCQ, ok2 := cfg.RecvCQ.(*verbs.UpcallCQ)
	if !ok1 || !ok2 {
		return nil, verbs.ErrBadWR
	}
	d.mu.Lock()
	d.nextQP++
	id := d.nextQP
	d.mu.Unlock()
	return &QP{dev: d, id: id, cfg: cfg, sendCQ: sendCQ, recvCQ: recvCQ}, nil
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
	qp.state.Store(stateReady)
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
func (q *QP) ID() verbs.QPID { return q.id }

// PostSend implements verbs.QP. The payload is NOT copied: the frame
// references wr.Data until it reaches the socket, honoring verbs
// ownership semantics (the caller owns the buffer again only when the
// completion fires).
func (q *QP) PostSend(wr *verbs.SendWR) error {
	switch q.state.Load() {
	case stateClosed:
		return verbs.ErrQPClosed
	case stateError:
		return verbs.ErrQPError
	case stateInit:
		return verbs.ErrNotConnected
	}
	if wr.ModelBytes != 0 {
		return verbs.ErrModelBytes
	}
	switch wr.Op {
	case verbs.OpSend, verbs.OpWrite, verbs.OpWriteImm:
		if wr.Length() <= 0 {
			return verbs.ErrBadWR
		}
	case verbs.OpRead:
		if wr.ReadLen <= 0 || wr.Local == nil || wr.LocalOffset < 0 ||
			wr.LocalOffset+wr.ReadLen > wr.Local.Len {
			return verbs.ErrBadWR
		}
	default:
		return verbs.ErrBadWR
	}
	q.sendMu.Lock()
	if q.sqOutstanding >= q.cfg.MaxSend {
		q.sendMu.Unlock()
		return verbs.ErrSendQueueFull
	}
	q.sqOutstanding++
	if wr.Op == verbs.OpRead {
		if q.rdOutstanding >= q.cfg.MaxRDAtomic {
			cp := *wr
			q.rdWait.Push(&cp)
			q.sendMu.Unlock()
			q.dev.Telemetry.Posted(wr.Op, 0)
			return nil
		}
		q.rdOutstanding++
	}
	q.sendMu.Unlock()

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
		putFrame(f)
		q.dropToken(tok, wr.Op)
		return verbs.ErrQPClosed
	}
	q.dev.Telemetry.Posted(wr.Op, 0) // wire bytes counted at the framing layer
	if wr.Op == verbs.OpSend {
		q.dev.Telemetry.Ctrl(len(wr.Data))
	}
	return nil
}

func (q *QP) dropToken(tok uint64, op verbs.Opcode) {
	q.dev.mu.Lock()
	delete(q.dev.tokens, tok)
	q.dev.mu.Unlock()
	q.sendMu.Lock()
	q.sqOutstanding--
	if op == verbs.OpRead {
		q.rdOutstanding--
	}
	q.sendMu.Unlock()
}

// issueRead puts a previously parked READ on the wire. Called with no
// locks held; the caller has already moved rdOutstanding to cover it.
func (q *QP) issueRead(wr *verbs.SendWR) {
	var postedNs int64
	if q.dev.Telemetry != nil {
		postedNs = time.Now().UnixNano()
	}
	tok := q.dev.registerToken(q, wr, postedNs)
	f := getFrame()
	f.channel, f.token = q.channel, tok
	f.postedNs = postedNs
	f.op = frReadReq
	f.addr, f.rkey = wr.Remote.Addr, wr.Remote.RKey
	f.imm = uint32(wr.ReadLen)
	if !q.dev.send(f) {
		putFrame(f)
		q.dropToken(tok, verbs.OpRead)
		if !wr.NoCompletion {
			q.sendCQ.Dispatch(0, verbs.WC{WRID: wr.WRID, Status: verbs.StatusAborted, Op: verbs.OpRead, QP: q.id})
		}
	}
}

// PostRecv implements verbs.QP.
func (q *QP) PostRecv(wr *verbs.RecvWR) error {
	switch q.state.Load() {
	case stateClosed:
		return verbs.ErrQPClosed
	case stateError:
		return verbs.ErrQPError
	}
	if wr.MR == nil || wr.Len <= 0 || wr.Offset < 0 || wr.Offset+wr.Len > wr.MR.Len {
		return verbs.ErrBadWR
	}
	cp := *wr
	q.recvMu.Lock()
	if q.recvQ.Len() >= q.cfg.MaxRecv {
		q.recvMu.Unlock()
		return verbs.ErrRecvQueueFull
	}
	q.recvQ.Push(&cp)
	q.recvMu.Unlock()
	q.recvCQ.Loop().Post(0, q.drainPending)
	return nil
}

// inbound handles a data-bearing frame from the peer. Runs on the
// device reader goroutine; receive-path work is posted to the recv loop.
func (q *QP) inbound(f *frame) {
	if q.state.Load() != stateReady {
		q.ackTo(f, wsAccess)
		putFrame(f)
		return
	}
	switch f.op {
	case frWrite:
		q.applyWrite(f, false)
	case frWriteImm:
		q.applyWrite(f, true)
	case frSend:
		q.recvCQ.Loop().Post(0, func() { q.parkFrame(f) })
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
func (q *QP) applyWrite(f *frame, imm bool) {
	if f.placeErr {
		q.ackTo(f, wsAccess)
		putFrame(f)
		return
	}
	if !f.placed {
		if _, _, err := q.dev.space.Place(verbs.RemoteAddr{Addr: f.addr, RKey: f.rkey}, f.payload, 0); err != nil {
			q.ackTo(f, wsAccess)
			putFrame(f)
			return
		}
		f.placed = true
		f.releasePayload()
	}
	if imm {
		q.recvCQ.Loop().Post(0, func() { q.parkFrame(f) })
		return // ACK after the imm notification consumes a receive
	}
	q.ackTo(f, wsOK)
	putFrame(f)
}

// parkFrame queues a receive-consuming frame and drains.
func (q *QP) parkFrame(f *frame) {
	q.recvMu.Lock()
	q.pending.Push(f)
	stalled := q.recvQ.Len() == 0
	q.recvMu.Unlock()
	if stalled {
		q.dev.RNRStalls.Add(1)
		q.dev.Telemetry.RNR()
	}
	q.drainPending()
}

func (q *QP) drainPending() {
	for {
		q.recvMu.Lock()
		if q.pending.Len() == 0 || q.recvQ.Len() == 0 {
			q.recvMu.Unlock()
			return
		}
		f, _ := q.pending.Pop()
		rwr, _ := q.recvQ.Pop()
		q.recvMu.Unlock()

		if f.op == frWriteImm {
			q.recvCQ.Dispatch(0, verbs.WC{
				WRID: rwr.WRID, Status: verbs.StatusSuccess, Op: verbs.OpWriteImm,
				ByteLen: f.paylen, Imm: f.imm, QP: q.id,
			})
			q.ackTo(f, wsOK)
			putFrame(f)
			continue
		}
		if f.paylen > rwr.Len {
			q.ackTo(f, wsAccess)
			putFrame(f)
			q.enterError()
			return
		}
		rwr.MR.PlaceLocal(rwr.Offset, f.payload)
		q.recvCQ.Dispatch(0, verbs.WC{
			WRID: rwr.WRID, Status: verbs.StatusSuccess, Op: verbs.OpRecv,
			ByteLen: f.paylen, Imm: f.imm,
			Data: rwr.MR.ViewLocal(rwr.Offset, f.paylen), QP: q.id,
		})
		q.ackTo(f, wsOK)
		putFrame(f) // returns the staging buffer to the pool
	}
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
func (q *QP) remoteAck(wr verbs.SendWR, f *frame, postedNs int64) {
	q.sendMu.Lock()
	q.sqOutstanding--
	var next *verbs.SendWR
	if wr.Op == verbs.OpRead {
		q.rdOutstanding--
		if q.rdWait.Len() > 0 && q.state.Load() == stateReady {
			next, _ = q.rdWait.Pop()
			q.rdOutstanding++
		}
	}
	q.sendMu.Unlock()
	if next != nil {
		q.issueRead(next)
	}
	q.dev.Telemetry.Completed(wr.Op)
	if postedNs != 0 {
		q.dev.Telemetry.WireRTT(time.Duration(time.Now().UnixNano() - postedNs))
	}
	status := frameStatusToVerbs(f.status)
	byteLen := wr.Length()
	if wr.Op == verbs.OpRead {
		byteLen = wr.ReadLen
		if status == verbs.StatusSuccess && wr.Local != nil && !f.placed {
			// Fallback: the response was staged (e.g. a truncated or
			// oversized reply); place it now.
			wr.Local.PlaceLocal(wr.LocalOffset, f.payload)
		}
	}
	if status != verbs.StatusSuccess {
		q.enterError()
	} else if wr.NoCompletion {
		return
	}
	q.sendCQ.Dispatch(0, verbs.WC{
		WRID: wr.WRID, Status: status, Op: wr.Op, ByteLen: byteLen, QP: q.id,
	})
}

// connectionLost fails the QP after a transport error.
func (q *QP) connectionLost() {
	if q.state.CompareAndSwap(stateReady, stateError) {
		q.flushRecvs()
	}
}

func (q *QP) enterError() {
	q.state.CompareAndSwap(stateReady, stateError)
}

func (q *QP) flushRecvs() {
	q.recvMu.Lock()
	rq := q.recvQ.Drain(nil)
	pend := q.pending.Drain(nil)
	q.recvMu.Unlock()
	for _, f := range pend {
		putFrame(f)
	}
	for _, r := range rq {
		q.recvCQ.Dispatch(0, verbs.WC{WRID: r.WRID, Status: verbs.StatusFlushed, Op: verbs.OpRecv, QP: q.id})
	}
}

// Close implements verbs.QP.
func (q *QP) Close() error {
	old := q.state.Swap(stateClosed)
	if old == stateClosed {
		return verbs.ErrQPClosed
	}
	q.flushRecvs()
	return nil
}

var _ verbs.QP = (*QP)(nil)
