package simfabric

import (
	"bytes"
	"testing"
	"time"

	"rftp/internal/hostmodel"
	"rftp/internal/sim"
	"rftp/internal/verbs"
)

// rig is a two-host test fixture with one connected QP pair.
type rig struct {
	sched   *sim.Scheduler
	fabric  *Fabric
	srcHost *hostmodel.Host
	dstHost *hostmodel.Host
	srcDev  *Device
	dstDev  *Device
	srcLoop *hostmodel.Thread
	dstLoop *hostmodel.Thread
	srcPD   *verbs.PD
	dstPD   *verbs.PD
	srcCQ   *verbs.UpcallCQ
	dstCQ   *verbs.UpcallCQ
	srcQP   verbs.QP
	dstQP   verbs.QP
	srcWCs  []verbs.WC
	dstWCs  []verbs.WC
}

func lanLink() LinkConfig {
	return LinkConfig{RateBps: 40e9, PropDelay: 12500 * time.Nanosecond, MTU: 9000, HeaderBytes: 58}
}

func newRig(t *testing.T, link LinkConfig) *rig {
	t.Helper()
	r := &rig{}
	r.sched = sim.New(1)
	r.fabric = New(r.sched)
	r.srcHost = hostmodel.NewHost(r.sched, "src", 8, hostmodel.DefaultParams())
	r.dstHost = hostmodel.NewHost(r.sched, "dst", 8, hostmodel.DefaultParams())
	r.srcDev = r.fabric.NewDevice("sim0", r.srcHost, DefaultNICProfile())
	r.dstDev = r.fabric.NewDevice("sim1", r.dstHost, DefaultNICProfile())
	r.fabric.Connect(r.srcDev, r.dstDev, link)
	r.srcLoop = r.srcHost.NewThread("src-loop")
	r.dstLoop = r.dstHost.NewThread("dst-loop")
	r.srcPD = r.srcDev.AllocPD()
	r.dstPD = r.dstDev.AllocPD()
	r.srcCQ = r.srcDev.CreateCQ(r.srcLoop, 1024).(*verbs.UpcallCQ)
	r.dstCQ = r.dstDev.CreateCQ(r.dstLoop, 1024).(*verbs.UpcallCQ)
	r.srcCQ.SetHandler(func(wc verbs.WC) { r.srcWCs = append(r.srcWCs, wc) })
	r.dstCQ.SetHandler(func(wc verbs.WC) { r.dstWCs = append(r.dstWCs, wc) })
	var err error
	r.srcQP, err = r.srcDev.CreateQP(verbs.QPConfig{PD: r.srcPD, SendCQ: r.srcCQ, RecvCQ: r.srcCQ, MaxSend: 512, MaxRecv: 512})
	if err != nil {
		t.Fatal(err)
	}
	r.dstQP, err = r.dstDev.CreateQP(verbs.QPConfig{PD: r.dstPD, SendCQ: r.dstCQ, RecvCQ: r.dstCQ, MaxSend: 512, MaxRecv: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.fabric.ConnectQPs(r.srcQP, r.dstQP); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSendRecvDeliversData(t *testing.T) {
	r := newRig(t, lanLink())
	buf := make([]byte, 256)
	mr, err := r.dstDev.RegisterMR(r.dstPD, buf, verbs.AccessLocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.dstQP.PostRecv(&verbs.RecvWR{WRID: 7, MR: mr, Len: 256}); err != nil {
		t.Fatal(err)
	}
	msg := []byte("control message payload")
	if err := r.srcQP.PostSend(&verbs.SendWR{WRID: 1, Op: verbs.OpSend, Data: msg, Imm: 42}); err != nil {
		t.Fatal(err)
	}
	r.sched.RunAll()
	if len(r.dstWCs) != 1 {
		t.Fatalf("dst completions = %d, want 1", len(r.dstWCs))
	}
	wc := r.dstWCs[0]
	if wc.Op != verbs.OpRecv || wc.WRID != 7 || wc.Imm != 42 || wc.Status != verbs.StatusSuccess {
		t.Fatalf("recv WC wrong: %+v", wc)
	}
	if !bytes.Equal(wc.Data, msg) || !bytes.Equal(buf[:len(msg)], msg) {
		t.Fatalf("data not placed: %q", wc.Data)
	}
	if len(r.srcWCs) != 1 || r.srcWCs[0].Status != verbs.StatusSuccess || r.srcWCs[0].Op != verbs.OpSend {
		t.Fatalf("src completion wrong: %+v", r.srcWCs)
	}
}

func TestWritePlacesHeaderIntoShadow(t *testing.T) {
	r := newRig(t, lanLink())
	// 1 MiB modeled block with a 64-byte shadow.
	mr, err := r.dstDev.RegisterModelMR(r.dstPD, 1<<20, 64, verbs.AccessRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	hdr := bytes.Repeat([]byte{0x5A}, 32)
	wr := &verbs.SendWR{WRID: 9, Op: verbs.OpWrite, Data: hdr, ModelBytes: 1<<20 - 32, Remote: mr.Remote(0)}
	if err := r.srcQP.PostSend(wr); err != nil {
		t.Fatal(err)
	}
	r.sched.RunAll()
	if !bytes.Equal(mr.Buf[:32], hdr) {
		t.Fatal("header not placed")
	}
	if len(r.dstWCs) != 0 {
		t.Fatalf("plain WRITE generated receiver completions: %+v", r.dstWCs)
	}
	if len(r.srcWCs) != 1 || r.srcWCs[0].ByteLen != 1<<20 {
		t.Fatalf("src WC: %+v", r.srcWCs)
	}
}

func TestWriteCompletionTiming(t *testing.T) {
	link := lanLink()
	r := newRig(t, link)
	mr, _ := r.dstDev.RegisterModelMR(r.dstPD, 1<<20, 64, verbs.AccessRemoteWrite)
	size := 1 << 20
	wr := &verbs.SendWR{WRID: 1, Op: verbs.OpWrite, Data: make([]byte, 32), ModelBytes: size - 32, Remote: mr.Remote(0)}
	if err := r.srcQP.PostSend(wr); err != nil {
		t.Fatal(err)
	}
	r.sched.RunAll()
	// Expected: serialization + 2 * propagation (data + ack) + NIC costs.
	wire := r.srcDev.wireBytes(size)
	ser := time.Duration(float64(wire) * 8 / link.RateBps * float64(time.Second))
	min := ser + 2*link.PropDelay
	max := min + 50*time.Microsecond // NIC + host cost slack
	if got := r.sched.Now(); got < min || got > max {
		t.Fatalf("completion at %v, want in [%v, %v]", got, min, max)
	}
}

func TestBandwidthCeiling(t *testing.T) {
	link := lanLink()
	r := newRig(t, link)
	mr, _ := r.dstDev.RegisterModelMR(r.dstPD, 64<<20, 64, verbs.AccessRemoteWrite)
	const n = 64
	size := 1 << 20
	for i := 0; i < n; i++ {
		wr := &verbs.SendWR{WRID: uint64(i), Op: verbs.OpWrite, Data: make([]byte, 32),
			ModelBytes: size - 32, Remote: mr.Remote(i % 64 * size)}
		if err := r.srcQP.PostSend(wr); err != nil {
			t.Fatal(err)
		}
	}
	r.sched.RunAll()
	elapsed := r.sched.Now()
	gbps := float64(n*size) * 8 / elapsed.Seconds() / 1e9
	// 64 MiB over a 40 Gbps link: goodput must be under line rate but
	// above 80% of it (pipelined, header overhead ~0.7%).
	if gbps > 40 || gbps < 32 {
		t.Fatalf("aggregate bandwidth = %.1f Gbps, want 32-40", gbps)
	}
}

func TestRNRRetryThenDelivery(t *testing.T) {
	r := newRig(t, lanLink())
	buf := make([]byte, 64)
	mr, _ := r.dstDev.RegisterMR(r.dstPD, buf, verbs.AccessLocalWrite)
	// Send before any receive is posted.
	if err := r.srcQP.PostSend(&verbs.SendWR{WRID: 1, Op: verbs.OpSend, Data: []byte("late")}); err != nil {
		t.Fatal(err)
	}
	// Post the receive 300us later (within the retry budget).
	r.sched.After(300*time.Microsecond, func() {
		if err := r.dstQP.PostRecv(&verbs.RecvWR{WRID: 2, MR: mr, Len: 64}); err != nil {
			t.Fatal(err)
		}
	})
	r.sched.RunAll()
	if len(r.dstWCs) != 1 || string(r.dstWCs[0].Data) != "late" {
		t.Fatalf("message not delivered after RNR: %+v", r.dstWCs)
	}
	if r.dstDev.RNRNaks == 0 {
		t.Fatal("no RNR NAKs counted")
	}
	if len(r.srcWCs) != 1 || r.srcWCs[0].Status != verbs.StatusSuccess {
		t.Fatalf("sender completion: %+v", r.srcWCs)
	}
}

func TestRNRRetryExhaustion(t *testing.T) {
	r := newRig(t, lanLink())
	// Recreate QPs with a tiny retry budget.
	srcQP, _ := r.srcDev.CreateQP(verbs.QPConfig{PD: r.srcPD, SendCQ: r.srcCQ, RecvCQ: r.srcCQ, RNRRetry: 2})
	dstQP, _ := r.dstDev.CreateQP(verbs.QPConfig{PD: r.dstPD, SendCQ: r.dstCQ, RecvCQ: r.dstCQ, RNRRetry: 2})
	if err := r.fabric.ConnectQPs(srcQP, dstQP); err != nil {
		t.Fatal(err)
	}
	if err := srcQP.PostSend(&verbs.SendWR{WRID: 5, Op: verbs.OpSend, Data: []byte("doomed")}); err != nil {
		t.Fatal(err)
	}
	r.sched.RunAll()
	if len(r.srcWCs) != 1 || r.srcWCs[0].Status != verbs.StatusRNRRetryExceeded {
		t.Fatalf("want RNR retry exceeded, got %+v", r.srcWCs)
	}
	// The sender QP is now in error state.
	if err := srcQP.PostSend(&verbs.SendWR{Op: verbs.OpSend, Data: []byte("x")}); err != verbs.ErrQPError {
		t.Fatalf("post on errored QP: %v", err)
	}
}

// TestParkedSendRefusedOnClose: a SEND parked in the RNR retry loop is
// refused at its sender when the responder closes, before its retries
// run out, and its retry timer then stops.
func TestParkedSendRefusedOnClose(t *testing.T) {
	r := newRig(t, lanLink())
	if err := r.srcQP.PostSend(&verbs.SendWR{WRID: 4, Op: verbs.OpSend, Data: []byte("parked")}); err != nil {
		t.Fatal(err)
	}
	r.sched.Run(r.sched.Now() + 150*time.Microsecond) // arrived, NAKed once
	if r.dstDev.RNRNaks == 0 || len(r.srcWCs) != 0 {
		t.Fatalf("SEND not parked: %d NAKs, sender WCs %+v", r.dstDev.RNRNaks, r.srcWCs)
	}
	if err := r.dstQP.Close(); err != nil {
		t.Fatal(err)
	}
	naks := r.dstDev.RNRNaks
	r.sched.RunAll()
	if len(r.srcWCs) != 1 || r.srcWCs[0].Status != verbs.StatusAborted {
		t.Fatalf("parked SEND after responder close: %+v", r.srcWCs)
	}
	if r.dstDev.RNRNaks != naks {
		t.Fatalf("RNR retries went on after close: %d NAKs, then %d", naks, r.dstDev.RNRNaks)
	}
}

func TestReadFetchesData(t *testing.T) {
	r := newRig(t, lanLink())
	src := []byte("remote data to read back....")
	remoteMR, _ := r.dstDev.RegisterMR(r.dstPD, src, verbs.AccessRemoteRead)
	localBuf := make([]byte, 64)
	localMR, _ := r.srcDev.RegisterMR(r.srcPD, localBuf, verbs.AccessLocalWrite)
	wr := &verbs.SendWR{WRID: 3, Op: verbs.OpRead, Remote: remoteMR.Remote(0), ReadLen: len(src), Local: localMR}
	if err := r.srcQP.PostSend(wr); err != nil {
		t.Fatal(err)
	}
	r.sched.RunAll()
	if len(r.srcWCs) != 1 || r.srcWCs[0].Op != verbs.OpRead || r.srcWCs[0].Status != verbs.StatusSuccess {
		t.Fatalf("read WC: %+v", r.srcWCs)
	}
	if !bytes.Equal(localBuf[:len(src)], src) {
		t.Fatalf("read data = %q", localBuf[:len(src)])
	}
	if len(r.dstWCs) != 0 {
		t.Fatal("READ generated responder host completions (must be one-sided)")
	}
}

func TestReadOutstandingLimitSerializes(t *testing.T) {
	link := lanLink()
	link.PropDelay = time.Millisecond // make RTT dominate
	r := newRig(t, link)
	remoteMR, _ := r.dstDev.RegisterModelMR(r.dstPD, 1<<20, 0, verbs.AccessRemoteRead)
	localMR, _ := r.srcDev.RegisterModelMR(r.srcPD, 1<<20, 0, verbs.AccessLocalWrite)
	srcQP, _ := r.srcDev.CreateQP(verbs.QPConfig{PD: r.srcPD, SendCQ: r.srcCQ, RecvCQ: r.srcCQ, MaxRDAtomic: 1, MaxSend: 16})
	dstQP, _ := r.dstDev.CreateQP(verbs.QPConfig{PD: r.dstPD, SendCQ: r.dstCQ, RecvCQ: r.dstCQ})
	r.fabric.ConnectQPs(srcQP, dstQP)
	const n = 4
	for i := 0; i < n; i++ {
		wr := &verbs.SendWR{WRID: uint64(i), Op: verbs.OpRead, Remote: remoteMR.Remote(0), ReadLen: 4096, Local: localMR}
		if err := srcQP.PostSend(wr); err != nil {
			t.Fatal(err)
		}
	}
	r.sched.RunAll()
	// With MaxRDAtomic=1, each READ takes a full RTT: total >= n*RTT.
	if got := r.sched.Now(); got < n*2*time.Millisecond {
		t.Fatalf("4 serialized reads finished in %v, want >= %v", got, n*2*time.Millisecond)
	}
	if len(r.srcWCs) != n {
		t.Fatalf("completions = %d", len(r.srcWCs))
	}
}

func TestRemoteAccessViolation(t *testing.T) {
	r := newRig(t, lanLink())
	mr, _ := r.dstDev.RegisterMR(r.dstPD, make([]byte, 64), verbs.AccessRemoteRead) // no write access
	wr := &verbs.SendWR{WRID: 1, Op: verbs.OpWrite, Data: []byte("nope"), Remote: mr.Remote(0)}
	if err := r.srcQP.PostSend(wr); err != nil {
		t.Fatal(err)
	}
	r.sched.RunAll()
	if len(r.srcWCs) != 1 || r.srcWCs[0].Status != verbs.StatusRemoteAccessError {
		t.Fatalf("want remote access error, got %+v", r.srcWCs)
	}
}

func TestSendQueueFull(t *testing.T) {
	r := newRig(t, lanLink())
	qp, _ := r.srcDev.CreateQP(verbs.QPConfig{PD: r.srcPD, SendCQ: r.srcCQ, RecvCQ: r.srcCQ, MaxSend: 2})
	dqp, _ := r.dstDev.CreateQP(verbs.QPConfig{PD: r.dstPD, SendCQ: r.dstCQ, RecvCQ: r.dstCQ})
	r.fabric.ConnectQPs(qp, dqp)
	mr, _ := r.dstDev.RegisterModelMR(r.dstPD, 1<<20, 0, verbs.AccessRemoteWrite)
	wr := func() *verbs.SendWR {
		return &verbs.SendWR{Op: verbs.OpWrite, Data: []byte("x"), ModelBytes: 1 << 19, Remote: mr.Remote(0)}
	}
	if err := qp.PostSend(wr()); err != nil {
		t.Fatal(err)
	}
	if err := qp.PostSend(wr()); err != nil {
		t.Fatal(err)
	}
	if err := qp.PostSend(wr()); err != verbs.ErrSendQueueFull {
		t.Fatalf("third post: %v, want queue full", err)
	}
	r.sched.RunAll()
	// After completions drain the queue accepts work again.
	if err := qp.PostSend(wr()); err != nil {
		t.Fatalf("post after drain: %v", err)
	}
	r.sched.RunAll()
}

func TestPostBeforeConnectFails(t *testing.T) {
	r := newRig(t, lanLink())
	qp, _ := r.srcDev.CreateQP(verbs.QPConfig{PD: r.srcPD, SendCQ: r.srcCQ, RecvCQ: r.srcCQ})
	if err := qp.PostSend(&verbs.SendWR{Op: verbs.OpSend, Data: []byte("x")}); err != verbs.ErrNotConnected {
		t.Fatalf("unconnected post: %v", err)
	}
}

func TestCloseFlushesRecvQueue(t *testing.T) {
	r := newRig(t, lanLink())
	mr, _ := r.dstDev.RegisterMR(r.dstPD, make([]byte, 64), verbs.AccessLocalWrite)
	r.dstQP.PostRecv(&verbs.RecvWR{WRID: 11, MR: mr, Len: 64})
	r.dstQP.PostRecv(&verbs.RecvWR{WRID: 12, MR: mr, Len: 64})
	if err := r.dstQP.Close(); err != nil {
		t.Fatal(err)
	}
	r.sched.RunAll()
	if len(r.dstWCs) != 2 {
		t.Fatalf("flush completions = %d, want 2", len(r.dstWCs))
	}
	for _, wc := range r.dstWCs {
		if wc.Status != verbs.StatusFlushed {
			t.Fatalf("flush WC status = %v", wc.Status)
		}
	}
	if err := r.dstQP.Close(); err != verbs.ErrQPClosed {
		t.Fatalf("double close: %v", err)
	}
}

func TestTwoSidedChargesBothHostsOneSidedOnlySender(t *testing.T) {
	r := newRig(t, lanLink())
	mr, _ := r.dstDev.RegisterMR(r.dstPD, make([]byte, 4096), verbs.AccessLocalWrite|verbs.AccessRemoteWrite)
	for i := 0; i < 16; i++ {
		r.dstQP.PostRecv(&verbs.RecvWR{WRID: uint64(i), MR: mr, Len: 4096})
	}
	dstPostCPU := r.dstLoop.Busy() // cost of posting receives; exclude it
	for i := 0; i < 16; i++ {
		r.srcQP.PostSend(&verbs.SendWR{Op: verbs.OpSend, Data: []byte("two-sided")})
	}
	r.sched.RunAll()
	twoSidedDst := r.dstLoop.Busy() - dstPostCPU
	if twoSidedDst == 0 {
		t.Fatal("SEND/RECV charged no receiver CPU")
	}

	// One-sided writes must charge the receiver nothing further.
	wmr, _ := r.dstDev.RegisterModelMR(r.dstPD, 1<<20, 0, verbs.AccessRemoteWrite)
	before := r.dstLoop.Busy()
	for i := 0; i < 16; i++ {
		r.srcQP.PostSend(&verbs.SendWR{Op: verbs.OpWrite, Data: []byte("x"), ModelBytes: 4096, Remote: wmr.Remote(0)})
	}
	r.sched.RunAll()
	if got := r.dstLoop.Busy() - before; got != 0 {
		t.Fatalf("one-sided WRITE charged receiver %v CPU", got)
	}
}

func TestWriteImmConsumesRecvAndNotifies(t *testing.T) {
	r := newRig(t, lanLink())
	mr, _ := r.dstDev.RegisterModelMR(r.dstPD, 1<<20, 64, verbs.AccessRemoteWrite)
	notifyMR, _ := r.dstDev.RegisterMR(r.dstPD, make([]byte, 16), verbs.AccessLocalWrite)
	r.dstQP.PostRecv(&verbs.RecvWR{WRID: 77, MR: notifyMR, Len: 16})
	wr := &verbs.SendWR{WRID: 8, Op: verbs.OpWriteImm, Data: make([]byte, 32), ModelBytes: 4064,
		Remote: mr.Remote(0), Imm: 1234}
	if err := r.srcQP.PostSend(wr); err != nil {
		t.Fatal(err)
	}
	r.sched.RunAll()
	if len(r.dstWCs) != 1 {
		t.Fatalf("dst WCs = %d", len(r.dstWCs))
	}
	wc := r.dstWCs[0]
	if wc.Op != verbs.OpWriteImm || wc.Imm != 1234 || wc.WRID != 77 || wc.ByteLen != 4096 {
		t.Fatalf("imm WC: %+v", wc)
	}
}

func TestBadWRRejected(t *testing.T) {
	r := newRig(t, lanLink())
	if err := r.srcQP.PostSend(&verbs.SendWR{Op: verbs.OpSend}); err != verbs.ErrBadWR {
		t.Fatalf("empty SEND: %v", err)
	}
	if err := r.srcQP.PostSend(&verbs.SendWR{Op: verbs.OpRead, ReadLen: 64}); err != verbs.ErrBadWR {
		t.Fatalf("READ without local MR: %v", err)
	}
	mr, _ := r.dstDev.RegisterMR(r.dstPD, make([]byte, 8), verbs.AccessLocalWrite)
	if err := r.dstQP.PostRecv(&verbs.RecvWR{MR: mr, Len: 64}); err != verbs.ErrBadWR {
		t.Fatalf("oversized recv window: %v", err)
	}
	if err := r.dstQP.PostRecv(&verbs.RecvWR{MR: nil, Len: 8}); err != verbs.ErrBadWR {
		t.Fatalf("nil recv MR: %v", err)
	}
}

func TestRecvBufferTooSmallErrors(t *testing.T) {
	r := newRig(t, lanLink())
	mr, _ := r.dstDev.RegisterMR(r.dstPD, make([]byte, 8), verbs.AccessLocalWrite)
	r.dstQP.PostRecv(&verbs.RecvWR{WRID: 1, MR: mr, Len: 8})
	if err := r.srcQP.PostSend(&verbs.SendWR{WRID: 2, Op: verbs.OpSend, Data: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	r.sched.RunAll()
	if len(r.srcWCs) != 1 || r.srcWCs[0].Status != verbs.StatusRemoteAccessError {
		t.Fatalf("oversized SEND: %+v", r.srcWCs)
	}
}

func TestConnectQPsOnUnlinkedDevices(t *testing.T) {
	s := sim.New(1)
	f := New(s)
	h := hostmodel.NewHost(s, "h", 4, hostmodel.DefaultParams())
	d1 := f.NewDevice("a", h, DefaultNICProfile())
	d2 := f.NewDevice("b", h, DefaultNICProfile())
	d3 := f.NewDevice("c", h, DefaultNICProfile())
	f.Connect(d1, d2, lanLink())
	loop := h.NewThread("l")
	cq := d1.CreateCQ(loop, 16).(*verbs.UpcallCQ)
	pd := d1.AllocPD()
	q1, _ := d1.CreateQP(verbs.QPConfig{PD: pd, SendCQ: cq, RecvCQ: cq})
	cq3 := d3.CreateCQ(loop, 16).(*verbs.UpcallCQ)
	q3, _ := d3.CreateQP(verbs.QPConfig{PD: d3.AllocPD(), SendCQ: cq3, RecvCQ: cq3})
	if err := f.ConnectQPs(q1, q3); err != verbs.ErrNotConnected {
		t.Fatalf("connecting across unlinked devices: %v", err)
	}
}

func TestWANLatencyDominates(t *testing.T) {
	wan := LinkConfig{RateBps: 10e9, PropDelay: 24500 * time.Microsecond, MTU: 9000, HeaderBytes: 58}
	r := newRig(t, wan)
	mr, _ := r.dstDev.RegisterModelMR(r.dstPD, 1<<20, 0, verbs.AccessRemoteWrite)
	start := r.sched.Now()
	r.srcQP.PostSend(&verbs.SendWR{Op: verbs.OpWrite, Data: []byte("h"), ModelBytes: 4095, Remote: mr.Remote(0)})
	r.sched.RunAll()
	elapsed := r.sched.Now() - start
	// One small write on the WAN takes about one full RTT (49 ms).
	if elapsed < 49*time.Millisecond || elapsed > 50*time.Millisecond {
		t.Fatalf("WAN write completed in %v, want ~49ms", elapsed)
	}
}
