// Package chanfabric implements the verbs interface in-process with real
// goroutines and real byte movement.
//
// Two devices are connected by a pair of unidirectional pipes, each a
// goroutine that optionally shapes traffic (token-bucket style wire
// serialization plus propagation latency) and then applies the message
// to the receiver on the receiver's event loop. With zero shaping the
// fabric runs at memory speed, which is what the integration tests and
// the quickstart example use; with shaping it approximates a LAN/WAN in
// wall-clock time for small transfers.
//
// The queue-pair semantics are verbs.RCQP's, shared with the other
// fabrics; this package is the transport. Semantics match simfabric
// except one: a receiver-not-ready SEND parks until a receive is posted
// instead of being NAK-retried, so it never fails with
// StatusRNRRetryExceeded. The counter RNRStalls records how often that
// happened. ModelBytes are rejected — this fabric moves real bytes only.
package chanfabric

import (
	"sync"
	"sync/atomic"
	"time"

	"rftp/internal/bufpool"
	"rftp/internal/telemetry"
	"rftp/internal/verbs"
)

// Shaping configures the emulated wire between two devices. Zero values
// mean unshaped (memory-speed, zero-latency) delivery.
type Shaping struct {
	// RateBps caps throughput in bits per second (0 = unlimited).
	RateBps float64
	// Latency is the one-way propagation delay.
	Latency time.Duration
}

// Fabric tracks connected device pairs.
type Fabric struct {
	mu     sync.Mutex
	nextQP uint64
}

// New creates a fabric.
func New() *Fabric { return &Fabric{} }

// Device is an in-process NIC endpoint.
type Device struct {
	fabric  *Fabric
	name    string
	space   *verbs.AddressSpace
	peer    *Device
	shaping Shaping
	nextPD  uint32

	// RNRStalls counts SEND arrivals that had to park waiting for a
	// receive buffer.
	RNRStalls atomic.Uint64
	RxBytes   atomic.Uint64
	TxBytes   atomic.Uint64

	// Telemetry, when set before traffic starts, records per-opcode WR
	// and byte counters for this device. Nil costs nothing.
	Telemetry *telemetry.FabricMetrics
}

// NewDevice creates a device.
func (f *Fabric) NewDevice(name string) *Device {
	return &Device{fabric: f, name: name, space: verbs.NewAddressSpace()}
}

// Connect joins two devices with the given shaping in both directions.
func (f *Fabric) Connect(a, b *Device, shaping Shaping) {
	a.peer, b.peer = b, a
	a.shaping, b.shaping = shaping, shaping
}

// Name implements verbs.Device.
func (d *Device) Name() string { return d.name }

// AllocPD implements verbs.Device.
func (d *Device) AllocPD() *verbs.PD {
	d.nextPD++
	return &verbs.PD{ID: d.nextPD, Device: d.name}
}

// CreateCQ implements verbs.Device.
func (d *Device) CreateCQ(loop verbs.Loop, depth int) verbs.CQ {
	return verbs.NewUpcallCQ(loop)
}

// RegisterMR implements verbs.Device.
func (d *Device) RegisterMR(pd *verbs.PD, buf []byte, access verbs.Access) (*verbs.MR, error) {
	return d.space.Register(pd, buf, access)
}

// RegisterModelMR implements verbs.Device: modeled regions are not
// supported on a real-byte fabric.
func (d *Device) RegisterModelMR(pd *verbs.PD, length, shadow int, access verbs.Access) (*verbs.MR, error) {
	return nil, verbs.ErrModelBytes
}

// Space exposes the device's address space.
func (d *Device) Space() *verbs.AddressSpace { return d.space }

var _ verbs.Device = (*Device)(nil)

type message struct {
	wr   verbs.SendWR
	data []byte // pooled copy of wr.Data taken at post time
	// postedAt is the wire-entry stamp (zero when the device has no
	// telemetry attached, so the disabled path never calls time.Now).
	postedAt time.Time
}

// releaseData recycles the message's pooled payload copy once it has
// been placed (or the message aborted), so parked arrivals do not pin
// transfer-sized buffers and steady-state traffic allocates nothing.
func (m *message) releaseData() {
	if m.data != nil {
		bufpool.Put(m.data)
		m.data = nil
	}
}

// QP is an in-process queue pair: the shared RC model (verbs.RCQP)
// carried by a pipe goroutine per direction.
type QP struct {
	dev  *Device
	peer *QP
	rc   verbs.RCQP[*message, *message]

	// sendMu guards rc's send side and the pipe (PostSend may be called
	// from any goroutine, though the protocol uses one loop); recvMu
	// guards rc's receive side. Neither is held while taking the other.
	sendMu   sync.Mutex
	pipe     chan *message
	pipeOnce sync.Once
	recvMu   sync.Mutex
	settleFn func() // settle, bound once so PostRecv allocates nothing
}

// CreateQP implements verbs.Device.
func (d *Device) CreateQP(cfg verbs.QPConfig) (verbs.QP, error) {
	qp := &QP{dev: d}
	if err := qp.rc.Init(cfg); err != nil {
		return nil, err
	}
	qp.rc.ID = verbs.QPID(atomic.AddUint64(&d.fabric.nextQP, 1))
	qp.pipe = make(chan *message, qp.rc.Cfg.MaxSend*2+16)
	qp.settleFn = qp.settle
	return qp, nil
}

// ConnectQPs joins two queue pairs on connected devices and starts the
// delivery pipes.
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
	qa.pipeOnce.Do(func() { go qa.runPipe() })
	qb.pipeOnce.Do(func() { go qb.runPipe() })
	return nil
}

// ID implements verbs.QP.
func (q *QP) ID() verbs.QPID { return q.rc.ID }

// PostSend implements verbs.QP.
func (q *QP) PostSend(wr *verbs.SendWR) error {
	if err := q.rc.CheckSend(wr); err != nil {
		return err
	}
	if wr.ModelBytes != 0 {
		return verbs.ErrModelBytes
	}
	m := &message{wr: *wr}
	if q.dev.Telemetry != nil {
		m.postedAt = time.Now()
	}
	// Copy payload: wr.Data is the fabric's until the completion
	// (verbs.QP.PostSend), but copying here keeps the pipe safe even if
	// the caller reuses the buffer early (matches DMA-at-post semantics
	// closely enough for an emulation). The copy lives in a pooled
	// size-class buffer, recycled as soon as it is placed.
	if len(wr.Data) > 0 {
		m.data = bufpool.Get(len(wr.Data))
		copy(m.data, wr.Data)
		verbs.CountCopy(len(wr.Data))
	}
	q.sendMu.Lock()
	err := q.rc.Post(m, wr)
	q.kick()
	q.sendMu.Unlock()
	if err != nil {
		m.releaseData()
		return err
	}
	q.dev.TxBytes.Add(uint64(wr.Length()))
	q.dev.Telemetry.Posted(wr.Op, wr.Length())
	if wr.Op == verbs.OpSend {
		q.dev.Telemetry.Ctrl(len(wr.Data))
	}
	return nil
}

// kick feeds the pipe every WR the send queue releases, in posting
// order (once the QP has failed or closed, it flushes them instead).
// Runs under sendMu; the pipe is buffered beyond MaxSend, so it never
// blocks.
func (q *QP) kick() {
	for m, ok := q.rc.Next(); ok; m, ok = q.rc.Next() {
		q.pipe <- m
	}
}

// PostRecv implements verbs.QP. Parked arrivals are delivered on the
// receiver loop.
func (q *QP) PostRecv(wr *verbs.RecvWR) error {
	q.recvMu.Lock()
	err := q.rc.PostRecv(wr)
	q.recvMu.Unlock()
	if err == nil {
		q.rc.RecvCQ.Loop().Post(0, q.settleFn)
	}
	return err
}

// runPipe shapes and delivers messages in order.
func (q *QP) runPipe() {
	var wireFree time.Time
	for m := range q.pipe {
		if !m.postedAt.IsZero() {
			// Wire-entry stamp: send-queue residency ends when the pipe
			// goroutine picks the message up for serialization.
			q.dev.Telemetry.WireQueue(time.Since(m.postedAt))
		}
		sh := q.dev.shaping
		if sh.RateBps > 0 || sh.Latency > 0 {
			now := time.Now()
			if wireFree.Before(now) {
				wireFree = now
			}
			if sh.RateBps > 0 {
				tx := time.Duration(float64(m.wr.Length()) * 8 / sh.RateBps * float64(time.Second))
				wireFree = wireFree.Add(tx)
			}
			deliverAt := wireFree.Add(sh.Latency)
			if d := time.Until(deliverAt); d > 0 {
				time.Sleep(d)
			}
		}
		peer := q.peer
		if !peer.rc.Ready() {
			m.releaseData()
			q.completeSend(m, verbs.StatusAborted)
			continue
		}
		m := m
		peer.rc.RecvCQ.Loop().Post(0, func() { peer.arrive(m) })
	}
}

// arrive runs on the receiver's loop; q.peer is the sender.
func (q *QP) arrive(m *message) {
	if !q.rc.Ready() {
		m.releaseData()
		q.peer.completeSend(m, verbs.StatusAborted)
		return
	}
	switch m.wr.Op {
	case verbs.OpWrite:
		if q.placeWrite(m) {
			q.peer.completeSend(m, verbs.StatusSuccess)
		}
	case verbs.OpWriteImm:
		if q.placeWrite(m) {
			q.park(m)
		}
	case verbs.OpSend:
		q.park(m)
	case verbs.OpRead:
		q.serveRead(m)
	}
}

func (q *QP) placeWrite(m *message) bool {
	n := len(m.data)
	_, _, err := q.dev.space.Place(m.wr.Remote, m.data, 0)
	m.releaseData() // placed (or rejected) — either way the staging copy is done
	if err != nil {
		q.fail()
		q.peer.completeSend(m, verbs.StatusRemoteAccessError)
		return false
	}
	q.dev.RxBytes.Add(uint64(n))
	q.dev.Telemetry.Rx(n)
	return true
}

// park queues a receive-consuming arrival and tries to deliver.
func (q *QP) park(m *message) {
	q.recvMu.Lock()
	rnr := q.rc.Park(m, m.wr.Op, m.data, m.wr.Length(), m.wr.Imm)
	q.recvMu.Unlock()
	if rnr {
		q.dev.RNRStalls.Add(1)
		q.dev.Telemetry.RNR()
	}
	q.settle()
}

// settle answers every arrival the receive queue is done with and, once
// the QP has failed or closed, flushes the send queue too. In service it
// runs on the receiver loop only, which keeps the answers in order.
func (q *QP) settle() {
	for {
		q.recvMu.Lock()
		m, st, ok := q.rc.Deliver()
		q.recvMu.Unlock()
		if !ok {
			break
		}
		if st == verbs.StatusSuccess && m.wr.Op == verbs.OpSend {
			q.dev.RxBytes.Add(uint64(len(m.data)))
			q.dev.Telemetry.Rx(len(m.data))
		}
		m.releaseData() // staging copy consumed by placement
		q.peer.completeSend(m, st)
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

// serveRead runs at the responder: fetch and return data to the
// initiator's loop.
func (q *QP) serveRead(m *message) {
	_, view, err := q.dev.space.Fetch(m.wr.Remote, m.wr.ReadLen)
	if err != nil {
		q.fail()
		q.peer.completeRead(m, nil, verbs.StatusRemoteAccessError)
		return
	}
	data := bufpool.Get(len(view))
	copy(data, view)
	verbs.CountCopy(len(view))
	q.dev.TxBytes.Add(uint64(m.wr.ReadLen))
	init := q.peer
	init.rc.SendCQ.Loop().Post(0, func() { init.completeRead(m, data, verbs.StatusSuccess) })
}

// completeRead lands READ data at the initiator (on its loop).
func (q *QP) completeRead(m *message, data []byte, status verbs.Status) {
	if status == verbs.StatusSuccess && m.wr.Local != nil {
		m.wr.Local.PlaceLocal(m.wr.LocalOffset, data)
		q.dev.RxBytes.Add(uint64(len(data)))
		q.dev.Telemetry.Rx(len(data))
	}
	bufpool.Put(data)
	q.finishSend(m, status)
}

// completeSend delivers a sender completion for non-READ ops.
func (q *QP) completeSend(m *message, status verbs.Status) {
	lat := q.dev.shaping.Latency // ACK propagation
	if lat > 0 {
		time.AfterFunc(lat, func() { q.finishSend(m, status) })
		return
	}
	q.finishSend(m, status)
}

// finishSend retires a WR the wire is done with and releases whatever
// its completion frees (a READ's depth) onto the pipe.
func (q *QP) finishSend(m *message, status verbs.Status) {
	q.sendMu.Lock()
	q.rc.Complete(&m.wr, status)
	q.kick()
	q.sendMu.Unlock()
	q.dev.Telemetry.Completed(m.wr.Op)
	if !m.postedAt.IsZero() {
		q.dev.Telemetry.WireRTT(time.Since(m.postedAt))
	}
	if status != verbs.StatusSuccess {
		q.settle()
	}
}

// Close implements verbs.QP: the QP flushes (see verbs.RCQP) and its
// delivery pipe goroutine shuts down once the pipe drains.
func (q *QP) Close() error {
	q.sendMu.Lock()
	err := q.rc.Close()
	if err == nil {
		close(q.pipe)
	}
	q.sendMu.Unlock()
	if err != nil {
		return err
	}
	q.settle()
	return nil
}

var _ verbs.QP = (*QP)(nil)
