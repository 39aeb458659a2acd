package core

import (
	"fmt"
	"sync/atomic"

	"rftp/internal/invariant"
	"rftp/internal/ringq"
	"rftp/internal/verbs"
	"rftp/internal/wire"
)

// ctrlBufSize is the control receive buffer size: header plus a full
// credit batch.
const ctrlBufSize = wire.ControlHeaderSize + wire.MaxCreditsPerMsg*16

// dataQueueSlack is the send-queue headroom each data QP gets beyond
// the block pool's IODepth, absorbing retries and posting bursts so a
// momentarily full queue is exceptional rather than routine. The
// source's per-channel inflight bound uses the same value, so the QP
// queue and the protocol's own accounting agree.
const dataQueueSlack = 4

// Endpoint bundles the queue pairs one side of a connection uses: a
// dedicated control QP (SEND/RECV) and one or more data channel QPs
// (RDMA WRITE/READ). Every QP completes onto the one Loop: the control
// QP on CtrlCQ, every data QP on DataCQ, so the whole connection —
// control plane and data path alike — runs on one serial event thread.
type Endpoint struct {
	Dev  verbs.Device
	Loop verbs.Loop
	PD   *verbs.PD

	Ctrl   verbs.QP
	Data   []verbs.QP
	CtrlCQ *verbs.UpcallCQ
	DataCQ *verbs.UpcallCQ

	// MRCache, when set before pools are created, supplies block
	// registrations from the pin-down cache instead of registering
	// fresh regions, and receives them back on teardown.
	MRCache *verbs.MRCache

	// ctrl is the control plane over Ctrl/CtrlCQ, live from construction.
	ctrl        ctrlPlane
	ctrlRecvMRs []*verbs.MR
	ctrlRecvWR  verbs.RecvWR // the reusable control (re)post WR
	notifyMR    *verbs.MR
	notifyWRs   []verbs.RecvWR // one reusable repost WR per data QP
	ctrlDepth   int
	dataDepth   int
	// readDepth is the per-data-QP RDMA READ initiator depth
	// (QPConfig.MaxRDAtomic): the pull-mode fetcher's per-channel bound
	// on outstanding READs.
	readDepth int
	closed    atomic.Bool
}

// NewEndpoint creates an endpoint whose QPs all complete onto loop.
func NewEndpoint(dev verbs.Device, loop verbs.Loop, channels, ioDepth int) (*Endpoint, error) {
	return NewServiceEndpoint(dev, []verbs.Loop{loop}, channels, ioDepth, 1)
}

// ctrlMsgsPerSession is the control receive headroom reserved per
// additional tenant beyond the first: a session can land SESSION_REQ,
// MR_INFO_REQUEST, BLOCK_COMPLETE, and DATASET_COMPLETE in the window
// between a burst arriving and the control loop reposting receives, so
// an N-tenant connection admitting everyone at once needs the ring
// sized to the admission cap, not the block pool.
const ctrlMsgsPerSession = 4

// NewServiceEndpoint creates the QPs for one side: channels data QPs
// plus the control QP, all completing onto one loop. loops must hold
// exactly that one loop; the parameter is a slice only because
// benchmark/harness.go passes one, and the harness catch-up (ROADMAP
// item 2) narrows it to a verbs.Loop.
// ioDepth sizes the queues: the control receive queue must absorb one
// message per in-flight block plus negotiation traffic, and is
// additionally sized for sessions concurrent tenants (admitted plus
// queued). Below 256 tenants the single-session floor already
// covers the burst; above it an unsized ring takes receiver-not-ready
// retries on the admission storm (every tenant's SESSION_REQ, and later
// each one's MR_INFO_REQUEST / DATASET_COMPLETE, can arrive back to
// back before the loop reposts). sessions <= 1 is the classic layout.
func NewServiceEndpoint(dev verbs.Device, loops []verbs.Loop, channels, ioDepth, sessions int) (*Endpoint, error) {
	if channels < 1 {
		return nil, fmt.Errorf("core: need at least one data channel")
	}
	if len(loops) != 1 {
		return nil, fmt.Errorf("core: an endpoint runs on exactly one event loop, got %d", len(loops))
	}
	ctrlDepth := 2*ioDepth + 16
	if sessions > 1 {
		ctrlDepth += ctrlMsgsPerSession * sessions
	}
	if ctrlDepth < 64 {
		ctrlDepth = 64
	}
	ep := &Endpoint{Dev: dev, Loop: loops[0], PD: dev.AllocPD(), ctrlDepth: ctrlDepth,
		dataDepth: ioDepth + dataQueueSlack, readDepth: ioDepth + dataQueueSlack}
	// Every CQ has its handler before the first QP exists: closing a
	// half-built or never-claimed endpoint flushes posted receives, and
	// those completions must find someone home.
	ep.ctrl.ep = ep
	ep.ctrl.rx.Credits = ep.ctrl.rxCredits[:0]
	ep.CtrlCQ = verbs.NewUpcallCQ(ep.Loop)
	ep.CtrlCQ.SetHandler(ep.ctrl.onWC)
	ep.DataCQ = verbs.NewUpcallCQ(ep.Loop)
	ep.DataCQ.SetHandler(unclaimedDataWC)

	var err error
	ep.Ctrl, err = dev.CreateQP(verbs.QPConfig{
		PD: ep.PD, SendCQ: ep.CtrlCQ, RecvCQ: ep.CtrlCQ,
		MaxSend: ctrlDepth, MaxRecv: ctrlDepth,
	})
	if err != nil {
		return nil, fmt.Errorf("core: control QP: %w", err)
	}
	dataDepth := ep.dataDepth
	for i := 0; i < channels; i++ {
		// MaxRDAtomic is set explicitly to the full send depth: the
		// pull-mode fetcher bounds its own outstanding READs per channel
		// (ep.readDepth), so the QP-level initiator cap must not park
		// READs below what the protocol already accounts for.
		qp, err := dev.CreateQP(verbs.QPConfig{
			PD: ep.PD, SendCQ: ep.DataCQ, RecvCQ: ep.DataCQ,
			MaxSend: dataDepth, MaxRecv: dataDepth + 4,
			MaxRDAtomic: ep.readDepth,
		})
		if err != nil {
			return nil, fmt.Errorf("core: data QP %d: %w", i, err)
		}
		ep.Data = append(ep.Data, qp)
	}

	// Pre-post the full control receive ring so control SENDs never hit
	// receiver-not-ready (Section III: "the data sink must pre-post
	// sufficient registered buffers in the receive queue").
	for i := 0; i < ctrlDepth; i++ {
		mr, err := dev.RegisterMR(ep.PD, make([]byte, ctrlBufSize), verbs.AccessLocalWrite)
		if err != nil {
			return nil, fmt.Errorf("core: control recv buffer: %w", err)
		}
		ep.ctrlRecvMRs = append(ep.ctrlRecvMRs, mr)
		if err := ep.repostCtrlRecv(uint64(i)); err != nil {
			return nil, fmt.Errorf("core: pre-posting control recv: %w", err)
		}
	}
	return ep, nil
}

// unclaimedDataWC is the data CQ's handler until a Source or Sink
// installs its own: nothing has been posted on the data QPs yet (notify
// receives go up at negotiation), so only a teardown flush can get here.
func unclaimedDataWC(wc verbs.WC) {
	if wc.Status != verbs.StatusFlushed {
		panic(fmt.Sprintf("core: data completion (%v, %v) on an endpoint no Source or Sink claimed", wc.Op, wc.Status))
	}
}

// ctrlPlane is the control-message loop both sides of the protocol run
// over the control QP: encode → queue → post → send completion, and
// receive → decode → hand to the owner → repost. Source and Sink differ
// only in what handle does with a decoded message.
//
// In steady state the plane allocates nothing: messages encode into
// ctrlBufSize buffers recycled through free, and every receive decodes
// into the one plane-owned rx, whose credits live in rxCredits.
type ctrlPlane struct {
	ep *Endpoint
	// sendQ holds encoded messages the send queue had no room for;
	// posted holds each message on the wire, in posting order — an RC
	// queue pair completes in order. A message's buffer belongs to the
	// fabric until its send completes (verbs.QP.PostSend); a successful
	// completion returns it to free, while a flushed or failed one
	// leaves it to the garbage collector.
	sendQ  ringq.Ring[ctrlMsg]
	posted ringq.Ring[ctrlMsg]
	free   [][]byte
	wr     verbs.SendWR // reused post WR (PostSend copies)
	// rx is the decode target of every receive. onWC is never
	// re-entered (completions reach it through Loop.Post), so one is
	// enough.
	rx        wire.Control
	rxCredits [wire.MaxCreditsPerMsg]wire.Credit
	// owner is set by claim, possibly from another goroutine than the
	// control loop (rftpd builds its Sink on the accept goroutine after
	// the QPs are bound). held keeps, in arrival order, completions that
	// beat the owner to the endpoint; both it and the rings are
	// control-loop state.
	owner atomic.Pointer[ctrlOwner]
	held  []verbs.WC
}

type ctrlMsg struct {
	buf    []byte
	onSent func()
}

// ctrlOwner is what a Source or Sink plugs into the control plane: its
// message dispatch and its connection-fatal error path. handle's
// message, credits included, is the plane's decode storage and is
// overwritten by the next receive: handle must not keep the pointer or
// c.Credits past its return (Source copies credits into its stash, Sink
// copies advert fields into a fetchAdvert).
type ctrlOwner struct {
	handle func(*wire.Control)
	fail   func(error)
}

// claim gives the endpoint's control plane its owner and replays, on
// the control loop, whatever arrived first.
func (cp *ctrlPlane) claim(handle func(*wire.Control), fail func(error)) {
	cp.owner.Store(&ctrlOwner{handle: handle, fail: fail})
	cp.ep.Loop.Post(0, cp.replay)
}

func (cp *ctrlPlane) replay() {
	held := cp.held
	cp.held = nil
	for _, wc := range held {
		cp.onWC(wc)
	}
}

// send encodes and queues one control message. onSent, when non-nil,
// runs on the message's send completion — after the peer has it — and
// never for a message flushed by teardown. Sends are signaled so
// completions drain the queue when the send queue was momentarily full.
func (cp *ctrlPlane) send(c *wire.Control, onSent func()) {
	var buf []byte
	if n := len(cp.free); n > 0 {
		buf = cp.free[n-1]
		cp.free = cp.free[:n-1]
	} else {
		buf = make([]byte, 0, ctrlBufSize)
	}
	buf, err := c.Encode(buf[:0])
	if err != nil {
		cp.owner.Load().fail(fmt.Errorf("core: encoding %v: %w", c.Type, err))
		return
	}
	cp.sendQ.Push(ctrlMsg{buf: buf, onSent: onSent})
	cp.pump()
}

// recycle returns a sent message's buffer to the free list. Debug
// builds poison it first, so a fabric that still read it after the
// completion would deliver 0xDB bytes and fail decode at the peer.
func (cp *ctrlPlane) recycle(buf []byte) {
	invariant.PoisonFill(buf)
	cp.free = append(cp.free, buf)
}

// pump posts queued messages while the send queue accepts them;
// ErrSendQueueFull waits for a send completion.
func (cp *ctrlPlane) pump() {
	for {
		m, ok := cp.sendQ.Peek()
		if !ok {
			return
		}
		cp.wr = verbs.SendWR{Op: verbs.OpSend, Data: m.buf}
		err := cp.ep.Ctrl.PostSend(&cp.wr)
		if err == verbs.ErrSendQueueFull {
			return
		}
		if err != nil {
			cp.owner.Load().fail(fmt.Errorf("core: posting control message: %w", err))
			return
		}
		cp.sendQ.Pop()
		cp.posted.Push(m)
	}
}

// onWC handles every control-QP completion.
func (cp *ctrlPlane) onWC(wc verbs.WC) {
	if cp.ep.closed.Load() || wc.Status == verbs.StatusFlushed {
		return // teardown: no callback, no repost
	}
	o := cp.owner.Load()
	if o == nil || len(cp.held) > 0 {
		cp.held = append(cp.held, wc)
		return
	}
	if wc.Status != verbs.StatusSuccess {
		o.fail(fmt.Errorf("core: control QP failure: %v", wc.Status))
		return
	}
	if wc.Op != verbs.OpRecv {
		m, _ := cp.posted.Pop()
		cp.recycle(m.buf)
		if m.onSent != nil {
			m.onSent()
		}
		cp.pump() // a send slot freed
		return
	}
	if err := cp.rx.Decode(wc.Data); err != nil {
		o.fail(fmt.Errorf("core: bad control message: %w", err))
		return
	}
	// Handle, then repost: a message in hand outlives the QP it arrived
	// on. The peer may close right after its last message (the sink
	// after DATASET_COMPLETE_ACK), erroring this QP before the repost,
	// while the completions of messages it sent before closing still
	// wait on the loop. The failure is reported after them, so a
	// session they complete is not failed first.
	o.handle(&cp.rx)
	if err := cp.ep.repostCtrlRecv(wc.WRID); err != nil && err != ErrClosed {
		cp.ep.Loop.Post(0, func() { o.fail(fmt.Errorf("core: reposting control recv: %w", err)) })
	}
}

// channelQPs lists the endpoint's queue pairs by wire channel number:
// the control QP is channel 0, data QP i is channel i+1.
func (ep *Endpoint) channelQPs() []verbs.QP {
	return append([]verbs.QP{ep.Ctrl}, ep.Data...)
}

// Bind attaches every queue pair to its channel of a connection-scoped
// device: bind is the device's call (netfabric's Device.BindQP). Both
// ends number channels the same way, so two endpoints bound to the two
// ends of one connection are paired.
func (ep *Endpoint) Bind(bind func(q verbs.QP, channel uint32) error) error {
	for ch, qp := range ep.channelQPs() {
		if err := bind(qp, uint32(ch)); err != nil {
			return fmt.Errorf("core: wiring channel %d: %w", ch, err)
		}
	}
	return nil
}

// ConnectTo pairs the endpoint's queue pairs with peer's, channel by
// channel, on an in-process fabric: connect is the fabric's call
// (chanfabric's or simfabric's Fabric.ConnectQPs). Endpoints with
// different channel counts are refused before anything is connected.
func (ep *Endpoint) ConnectTo(peer *Endpoint, connect func(a, b verbs.QP) error) error {
	if len(ep.Data) != len(peer.Data) {
		return fmt.Errorf("core: connecting %d data channels to %d", len(ep.Data), len(peer.Data))
	}
	theirs := peer.channelQPs()
	return ep.Bind(func(q verbs.QP, ch uint32) error { return connect(q, theirs[ch]) })
}

// postDataNotifyRecvs pre-posts notification receives on every data QP
// (immediate-notification mode: WRITE WITH IMMEDIATE consumes one
// receive per block). The buffers are minimal: the immediate value and
// completion metadata carry everything.
func (ep *Endpoint) postDataNotifyRecvs(perQP int) error {
	mr, err := ep.Dev.RegisterMR(ep.PD, make([]byte, 64), verbs.AccessLocalWrite)
	if err != nil {
		return fmt.Errorf("core: notify recv buffer: %w", err)
	}
	ep.notifyMR = mr
	ep.notifyWRs = make([]verbs.RecvWR, len(ep.Data))
	for _, qp := range ep.Data {
		for i := 0; i < perQP; i++ {
			if err := qp.PostRecv(&verbs.RecvWR{WRID: uint64(i), MR: mr, Len: 64}); err != nil {
				return fmt.Errorf("core: pre-posting notify recv: %w", err)
			}
		}
	}
	return nil
}

// repostDataNotifyRecv replenishes one notification receive on data QP
// ch. Only the endpoint's loop reposts, so the per-QP reusable WR has a
// single writer.
func (ep *Endpoint) repostDataNotifyRecv(ch int, wrid uint64) error {
	if ep.closed.Load() {
		return ErrClosed
	}
	wr := &ep.notifyWRs[ch]
	wr.WRID, wr.MR, wr.Len = wrid, ep.notifyMR, 64
	return ep.Data[ch].PostRecv(wr)
}

// repostCtrlRecv (re)posts control receive buffer wrid through the one
// reusable WR (PostRecv copies it). Construction pre-posts the ring and
// then only the control loop reposts, so the WR has a single writer.
func (ep *Endpoint) repostCtrlRecv(wrid uint64) error {
	if ep.closed.Load() {
		return ErrClosed
	}
	wr := &ep.ctrlRecvWR
	wr.WRID, wr.MR, wr.Len = wrid, ep.ctrlRecvMRs[int(wrid)], ctrlBufSize
	return ep.Ctrl.PostRecv(wr)
}

// Close tears down all queue pairs.
func (ep *Endpoint) Close() {
	if !ep.closed.CompareAndSwap(false, true) {
		return
	}
	ep.Ctrl.Close()
	for _, qp := range ep.Data {
		qp.Close()
	}
}
