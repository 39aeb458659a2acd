// Package netfabric implements the verbs interface over TCP sockets, so
// the protocol core runs unchanged between two real processes (in the
// spirit of software RDMA emulations like Soft-RoCE).
//
// One TCP connection joins two Devices. All queue pairs are multiplexed
// over it as framed messages keyed by a channel id that both sides bind
// with BindQP (the numbering belongs to the caller: core's
// Endpoint.Bind). One-sided WRITE frames carry (addr, rkey) and are validated
// against the receiving device's registered regions exactly like the
// other fabrics; SENDs consume posted receives; READs round-trip a
// request/response pair. Every data-bearing frame is acknowledged so
// sender completions reflect remote placement (and carry remote access
// errors), like RC ACKs. The queue-pair rules themselves are
// verbs.RCQP's; when the connection is lost, every WR still awaiting its
// ACK completes StatusFlushed.
//
// The data path is zero-copy in the verbs sense: PostSend references
// the caller's buffer until the ACK completes the work request (verbs
// ownership semantics — the application must not touch the buffer
// while the WR is outstanding), and the reader resolves WRITE targets
// from the frame header and reads payloads straight into the
// registered region. Only receive paths that cannot know their
// destination up front (SENDs waiting for a posted receive) stage
// through pooled size-class buffers, which are recycled as soon as the
// payload is consumed. The writer drains its queue in batches and
// emits header+payload pairs as one vectored write (writev via
// net.Buffers), so deep pipelines cost one syscall per batch, not per
// frame.
//
// Modeled payloads (ModelBytes) are rejected: this fabric moves real
// bytes only.
package netfabric

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rftp/internal/bufpool"
	"rftp/internal/telemetry"
	"rftp/internal/verbs"
)

// Frame opcodes on the wire.
const (
	frSend      = 1
	frWrite     = 2
	frWriteImm  = 3
	frReadReq   = 4
	frReadResp  = 5
	frAck       = 6
	frGoodbye   = 7
	frameMaxLen = 256 << 20
)

// Wire status codes in ACK/READ-response frames.
const (
	wsOK     = 0
	wsAccess = 1
	wsRNR    = 2
)

// Errors specific to this fabric.
var (
	ErrFrameTooLarge = errors.New("netfabric: frame exceeds limit")
	ErrBadFrame      = errors.New("netfabric: malformed frame")
)

// frame is the parsed wire unit. Frames are drawn from framePool on
// both the send and receive paths and returned once the payload has
// been written to the socket (sender) or consumed (receiver).
type frame struct {
	op      uint8
	channel uint32
	token   uint64
	addr    uint64
	rkey    uint32
	imm     uint32
	status  uint8
	// payload are the wire bytes. Outbound frames reference the
	// caller's (or a region's) buffer — never a copy. Inbound frames
	// either left their payload directly in the target region (placed)
	// or hold a pooled staging buffer (pooled).
	payload []byte
	// paylen is the wire payload length, retained after payload is
	// released or placed in-region.
	paylen int
	// pooled marks payload as owned by bufpool (staged receive).
	pooled bool
	// placed marks an inbound frame whose payload was read directly
	// into the destination memory region (payload is nil).
	placed bool
	// placeErr marks an inbound one-sided frame whose target failed
	// validation; the payload was discarded and the sender gets a
	// remote-access NAK.
	placeErr bool
	// postedNs is the wall-clock nanosecond stamp taken at PostSend,
	// feeding the wire-queue histogram when the writer drains the frame.
	// Zero (and never read) when the device has no telemetry attached.
	postedNs int64
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

func getFrame() *frame { return framePool.Get().(*frame) }

// releasePayload drops the frame's payload reference, recycling pooled
// staging buffers.
func (f *frame) releasePayload() {
	if f.pooled {
		bufpool.Put(f.payload)
		f.pooled = false
	}
	f.payload = nil
}

// putFrame releases the payload and returns the frame to the pool.
func putFrame(f *frame) {
	f.releasePayload()
	*f = frame{}
	framePool.Put(f)
}

const frameHeaderLen = 1 + 1 + 4 + 8 + 8 + 4 + 4 + 4 // op, status, channel, token, addr, rkey, imm, paylen

// encodeHeader serializes the frame header (with payload length taken
// from f.payload) into h, which must be frameHeaderLen bytes.
func encodeHeader(h []byte, f *frame) {
	h[0] = f.op
	h[1] = f.status
	binary.BigEndian.PutUint32(h[2:6], f.channel)
	binary.BigEndian.PutUint64(h[6:14], f.token)
	binary.BigEndian.PutUint64(h[14:22], f.addr)
	binary.BigEndian.PutUint32(h[22:26], f.rkey)
	binary.BigEndian.PutUint32(h[26:30], f.imm)
	binary.BigEndian.PutUint32(h[30:34], uint32(len(f.payload)))
}

// parseHeader fills f from a wire header and returns the payload
// length that follows.
func parseHeader(h []byte, f *frame) int {
	f.op = h[0]
	f.status = h[1]
	f.channel = binary.BigEndian.Uint32(h[2:6])
	f.token = binary.BigEndian.Uint64(h[6:14])
	f.addr = binary.BigEndian.Uint64(h[14:22])
	f.rkey = binary.BigEndian.Uint32(h[22:26])
	f.imm = binary.BigEndian.Uint32(h[26:30])
	return int(binary.BigEndian.Uint32(h[30:34]))
}

// writeFrame serializes one frame (header + payload). The hot path
// batches frames through the writer's vectored path instead; this is
// the simple single-frame form used by tests.
func writeFrame(w io.Writer, f *frame) error {
	var h [frameHeaderLen]byte
	encodeHeader(h[:], f)
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	_, err := w.Write(f.payload)
	return err
}

// readFrame parses one frame, allocating its payload. The device
// reader uses the in-place path in readPayload instead; this form
// exists for tests and tools.
func readFrame(r *bufio.Reader) (*frame, error) {
	var h [frameHeaderLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, err
	}
	f := &frame{}
	n := parseHeader(h[:], f)
	if n > frameMaxLen {
		return nil, ErrFrameTooLarge
	}
	if n > 0 {
		f.payload = make([]byte, n)
		f.paylen = n
		if _, err := io.ReadFull(r, f.payload); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Listener accepts fabric connections.
type Listener struct {
	l net.Listener
}

// Listen starts a fabric listener on addr ("host:port").
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address.
func (ln *Listener) Addr() net.Addr { return ln.l.Addr() }

// Close stops accepting.
func (ln *Listener) Close() error { return ln.l.Close() }

// Accept waits for one peer and returns the device bound to it.
func (ln *Listener) Accept() (*Device, error) {
	c, err := ln.l.Accept()
	if err != nil {
		return nil, err
	}
	return newDevice("net-server", c), nil
}

// Dial connects to a listener and returns the device bound to it.
func Dial(addr string) (*Device, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newDevice("net-client", c), nil
}

// Device is one endpoint of a TCP-backed fabric connection.
type Device struct {
	name  string
	conn  net.Conn
	space *verbs.AddressSpace

	outMu   sync.Mutex
	outCond *sync.Cond
	outQ    []*frame // swapped wholesale with the writer's batch slice
	writing bool     // writer is mid-batch (for Close's drain wait)
	closed  atomic.Bool
	torn    atomic.Bool // teardown ran: the reader and writer both call it
	start   sync.Once   // launches writer and reader at the first BindQP

	mu       sync.Mutex
	nextPD   uint32
	nextQP   verbs.QPID
	channels map[uint32]*QP
	parked   map[uint32][]*frame // frames arriving before BindQP
	tokens   map[uint64]pendingToken
	nextTok  uint64

	// RNRStalls counts SEND arrivals parked waiting for receives.
	RNRStalls atomic.Uint64
	RxBytes   atomic.Uint64
	TxBytes   atomic.Uint64

	// Telemetry, when set before the first BindQP, records per-opcode WR
	// and byte counters for this device. Nil costs nothing.
	Telemetry *telemetry.FabricMetrics

	// onClose observes connection teardown (EOF or error). Accessed
	// atomically: SetOnClose may race with the reader goroutine hitting
	// a transport error.
	onClose atomic.Value // func(error)
}

// SetOnClose installs a callback observing connection teardown (EOF or
// error); it runs at most once. Safe to call while traffic is flowing.
func (d *Device) SetOnClose(fn func(error)) {
	d.onClose.Store(fn)
}

type pendingToken struct {
	qp *QP
	wr verbs.SendWR
	// postedNs mirrors frame.postedNs for the ack path: the frame is
	// recycled once written, so the round-trip stamp rides the token.
	postedNs int64
}

func newDevice(name string, conn net.Conn) *Device {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	d := &Device{
		name:     name,
		conn:     conn,
		space:    verbs.NewAddressSpace(),
		channels: make(map[uint32]*QP),
		parked:   make(map[uint32][]*frame),
		tokens:   make(map[uint64]pendingToken),
	}
	d.outCond = sync.NewCond(&d.outMu)
	return d
}

// Name implements verbs.Device.
func (d *Device) Name() string { return d.name }

// AllocPD implements verbs.Device.
func (d *Device) AllocPD() *verbs.PD {
	d.mu.Lock()
	defer d.mu.Unlock()
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

// RegisterModelMR implements verbs.Device: unsupported on a real-byte
// fabric.
func (d *Device) RegisterModelMR(pd *verbs.PD, length, shadow int, access verbs.Access) (*verbs.MR, error) {
	return nil, verbs.ErrModelBytes
}

// Sync establishes a happens-before edge between the device's I/O
// goroutines and the caller. In-process tests that inspect a registered
// region directly after a one-sided WRITE completes need it: the
// placement happens on this device's reader goroutine and the only
// ordering signal — the ACK — crosses the TCP socket, which the race
// detector cannot follow. (Between real hosts the question doesn't
// arise; the region is only ever read on the receiving side.) The
// reader releases these locks after every placement, so locking them
// here orders all prior placements before the caller's reads.
func (d *Device) Sync() {
	d.outMu.Lock()
	d.outMu.Unlock() //lint:ignore SA2001 empty critical section is the point
	d.mu.Lock()
	d.mu.Unlock() //lint:ignore SA2001 see above
}

// Close tears the connection down, so the peer's QPs err out; a WR this
// side posts afterwards completes StatusFlushed. Frames already queued
// (for example the final session acknowledgment) are drained to the
// socket first, bounded by a short deadline.
func (d *Device) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	deadline := time.Now().Add(time.Second)
	d.outMu.Lock()
	for (len(d.outQ) > 0 || d.writing) && time.Now().Before(deadline) {
		d.outCond.Broadcast()
		d.outMu.Unlock()
		time.Sleep(time.Millisecond)
		d.outMu.Lock()
	}
	d.outCond.Broadcast()
	d.outMu.Unlock()
	return d.conn.Close()
}

// send enqueues a frame for the writer. The queue is unbounded so the
// reader goroutine can never deadlock generating ACKs; protocol-level
// flow control (send queue depths, credits) bounds it in practice.
func (d *Device) send(f *frame) bool {
	if d.closed.Load() {
		return false
	}
	d.outMu.Lock()
	d.outQ = append(d.outQ, f)
	d.outCond.Signal()
	d.outMu.Unlock()
	return true
}

// ctrlInlineMax bounds payloads copied into the writer's header arena:
// control messages (SEND frames) top out around wire header + max
// credits ≈ 1.1 KiB, far below this. Bulk WRITE/READ payloads always
// stay zero-copy regardless of size — the arena copy is framing, like
// the header encode, not a payload staging copy.
const ctrlInlineMax = 2048

// writer drains the outbound queue in batches: one lock acquisition
// swaps the whole queue out, then every frame's header and payload
// are emitted as a single vectored write. Headers encode sequentially
// into one arena, and small control (SEND) payloads are inlined right
// after their header, so a run of queued control messages collapses
// into a single contiguous iovec entry — one scatter element instead
// of 2×N — interrupted only by large zero-copy payload references.
// Batch storage (the swapped slice, the arena, the iovec) is reused
// across batches, so a steady-state sender allocates nothing here.
func (d *Device) writer() {
	var batch []*frame
	var hdrs []byte
	var iov [][]byte
	// bufs is the write's view of iov. WriteTo consumes it through a
	// pointer, so it lives outside the loop: declared per batch, it
	// would escape to the heap once per batch.
	var bufs net.Buffers
	for {
		d.outMu.Lock()
		for len(d.outQ) == 0 && !d.closed.Load() {
			d.outCond.Wait()
		}
		if len(d.outQ) == 0 {
			d.outMu.Unlock()
			return
		}
		batch, d.outQ = d.outQ, batch[:0]
		d.writing = true
		d.outMu.Unlock()

		need := 0
		for _, f := range batch {
			need += frameHeaderLen
			if f.op == frSend && len(f.payload) <= ctrlInlineMax {
				need += len(f.payload)
			}
		}
		if cap(hdrs) < need {
			hdrs = make([]byte, need)
		}
		hdrs = hdrs[:need]
		iov = iov[:0]
		total := 0
		off, runStart := 0, 0
		for _, f := range batch {
			encodeHeader(hdrs[off:off+frameHeaderLen], f)
			off += frameHeaderLen
			if n := len(f.payload); n > 0 {
				if f.op == frSend && n <= ctrlInlineMax {
					off += copy(hdrs[off:], f.payload)
				} else {
					iov = append(iov, hdrs[runStart:off])
					iov = append(iov, f.payload)
					runStart = off
				}
			}
			total += frameHeaderLen + len(f.payload)
		}
		if off > runStart {
			iov = append(iov, hdrs[runStart:off])
		}
		// Count the batch before the socket sees it: the peer's ACK can
		// complete a WR before this goroutine runs again, and whoever
		// waited on that completion must find the counters caught up. A
		// failed write tears the device down, so the overcount is moot.
		d.TxBytes.Add(uint64(total))
		d.Telemetry.Tx(total)
		d.Telemetry.TxBatch(len(batch))
		bufs = iov
		_, err := bufs.WriteTo(d.conn)
		if d.Telemetry != nil {
			// One clock read amortized over the batch: every frame's
			// send-queue residency ends at this socket write.
			nowNs := time.Now().UnixNano()
			for _, f := range batch {
				if f.postedNs != 0 {
					d.Telemetry.WireQueue(time.Duration(nowNs - f.postedNs))
				}
			}
		}
		for i, f := range batch {
			putFrame(f)
			batch[i] = nil
		}
		d.outMu.Lock()
		d.writing = false
		d.outCond.Broadcast()
		d.outMu.Unlock()
		if err != nil {
			d.teardown(err)
			return
		}
	}
}

func (d *Device) reader() {
	r := bufio.NewReaderSize(d.conn, 256<<10)
	var h [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(r, h[:]); err != nil {
			d.teardown(err)
			return
		}
		f := getFrame()
		n := parseHeader(h[:], f)
		if n > frameMaxLen {
			putFrame(f)
			d.teardown(ErrFrameTooLarge)
			return
		}
		f.paylen = n
		if n > 0 {
			if err := d.readPayload(r, f, n); err != nil {
				putFrame(f)
				d.teardown(err)
				return
			}
		}
		d.RxBytes.Add(uint64(frameHeaderLen + n))
		d.Telemetry.Rx(frameHeaderLen + n)
		d.dispatch(f)
	}
}

// readPayload lands a frame's payload. One-sided WRITEs whose target
// region validates are read directly into the registered memory (the
// RDMA WRITE path: header first, then DMA into the MR — no staging
// copy); READ responses land directly in the posted local region.
// Everything else (SENDs, frames for unbound channels, validation
// failures) stages through a pooled size-class buffer or discards.
func (d *Device) readPayload(r *bufio.Reader, f *frame, n int) error {
	switch f.op {
	case frWrite, frWriteImm:
		if d.channelReady(f.channel) {
			_, dst, err := d.space.WritableRemote(verbs.RemoteAddr{Addr: f.addr, RKey: f.rkey}, n)
			if err != nil {
				f.placeErr = true
				return discard(r, n)
			}
			if _, err := io.ReadFull(r, dst); err != nil {
				return err
			}
			f.placed = true
			return discard(r, n-len(dst))
		}
	case frReadResp:
		if f.status != wsOK {
			break
		}
		d.mu.Lock()
		pt, ok := d.tokens[f.token]
		d.mu.Unlock()
		if ok && pt.wr.Op == verbs.OpRead && pt.wr.Local != nil && n <= pt.wr.ReadLen {
			if dst := pt.wr.Local.WritableLocal(pt.wr.LocalOffset, n); len(dst) == n {
				if _, err := io.ReadFull(r, dst); err != nil {
					return err
				}
				f.placed = true
				return nil
			}
		}
	}
	f.payload = bufpool.Get(n)
	f.pooled = true
	_, err := io.ReadFull(r, f.payload)
	return err
}

// channelReady reports whether the channel is bound to a ready QP (the
// precondition for in-place WRITE placement; otherwise the frame parks
// with a staged payload, preserving pre-bind semantics).
func (d *Device) channelReady(ch uint32) bool {
	d.mu.Lock()
	qp, ok := d.channels[ch]
	d.mu.Unlock()
	return ok && qp.rc.Ready()
}

// discard consumes and drops n payload bytes.
func discard(r *bufio.Reader, n int) error {
	if n <= 0 {
		return nil
	}
	_, err := r.Discard(n)
	return err
}

// teardown fails every bound QP after a connection error. Nothing will
// answer what is on the wire any more, so each WR still awaiting an ACK
// completes StatusFlushed, in posting order; then each QP flushes. It
// runs once, whichever of the reader and the writer meets the broken
// connection first.
func (d *Device) teardown(err error) {
	if d.closed.Load() || !d.torn.CompareAndSwap(false, true) {
		return
	}
	d.mu.Lock()
	qps := make([]*QP, 0, len(d.channels))
	for _, qp := range d.channels {
		qps = append(qps, qp)
	}
	parked := d.parked
	d.parked = make(map[uint32][]*frame)
	d.mu.Unlock()
	for _, fs := range parked {
		for _, f := range fs {
			putFrame(f)
		}
	}
	// Failing each QP under its send lock orders every token a poster
	// registers before the sweep below.
	for _, qp := range qps {
		qp.sendMu.Lock()
		qp.rc.Fail()
		qp.sendMu.Unlock()
	}
	d.mu.Lock()
	toks := make([]uint64, 0, len(d.tokens))
	for tok := range d.tokens {
		toks = append(toks, tok)
	}
	slices.Sort(toks) // tokens count up in posting order
	lost := make([]pendingToken, len(toks))
	for i, tok := range toks {
		lost[i] = d.tokens[tok]
		delete(d.tokens, tok)
	}
	d.mu.Unlock()
	for i := range lost {
		qp := lost[i].qp
		qp.sendMu.Lock()
		qp.rc.Complete(&lost[i].wr, verbs.StatusFlushed)
		qp.sendMu.Unlock()
	}
	for _, qp := range qps {
		qp.settle()
	}
	if cb, _ := d.onClose.Load().(func(error)); cb != nil {
		cb(err)
	}
}

// dispatch routes an inbound frame. The frame is owned by the callee:
// completion paths release it back to the pool once consumed.
func (d *Device) dispatch(f *frame) {
	switch f.op {
	case frAck, frReadResp:
		d.mu.Lock()
		pt, ok := d.tokens[f.token]
		delete(d.tokens, f.token)
		d.mu.Unlock()
		if !ok {
			putFrame(f)
			return
		}
		pt.qp.remoteAck(&pt.wr, f, pt.postedNs)
		putFrame(f)
	case frGoodbye:
		putFrame(f)
		d.teardown(io.EOF)
	default:
		d.mu.Lock()
		qp, ok := d.channels[f.channel]
		if !ok {
			if len(d.parked[f.channel]) < 4096 {
				d.parked[f.channel] = append(d.parked[f.channel], f)
			} else {
				putFrame(f)
			}
			d.mu.Unlock()
			return
		}
		d.mu.Unlock()
		qp.inbound(f)
	}
}

// registerToken stores a completion continuation keyed by token.
// postedNs carries the wire-entry stamp to the ack path (0 when
// telemetry is detached).
func (d *Device) registerToken(qp *QP, wr *verbs.SendWR, postedNs int64) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextTok++
	d.tokens[d.nextTok] = pendingToken{qp: qp, wr: *wr, postedNs: postedNs}
	return d.nextTok
}

var _ verbs.Device = (*Device)(nil)

func frameStatusToVerbs(s uint8) verbs.Status {
	switch s {
	case wsOK:
		return verbs.StatusSuccess
	case wsAccess:
		return verbs.StatusRemoteAccessError
	case wsRNR:
		return verbs.StatusRNRRetryExceeded
	default:
		return verbs.StatusLocalError
	}
}
