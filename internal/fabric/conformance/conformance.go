// Package conformance is a fabric-independent test battery for the
// verbs interface: every fabric (simulated, in-process, TCP-backed)
// must exhibit the same semantics — data integrity, completion
// statuses, queue capacity errors, work-request validation, ordering,
// and teardown behavior, including the error and flush rule of
// verbs.RCQP, which all three share. Each fabric's test file calls Run
// with a factory for a connected device pair.
package conformance

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rftp/internal/verbs"
)

// Pair is a connected two-device environment under test.
type Pair struct {
	A, B         verbs.Device
	LoopA, LoopB verbs.Loop
	// ConnectQPs joins one QP from A with one from B.
	ConnectQPs func(a, b verbs.QP) error
	// Settle drives the world until outstanding work completes or the
	// budget elapses (simulated fabrics run the event loop; real-time
	// fabrics sleep-poll).
	Settle func(cond func() bool) bool
	// SupportsModel reports whether modeled memory regions work.
	SupportsModel bool
}

// Factory builds a fresh Pair for one subtest.
type Factory func(t *testing.T) *Pair

// collector gathers completions thread-safely (real-time fabrics
// dispatch from other goroutines).
type collector struct {
	mu  sync.Mutex
	wcs []verbs.WC
}

func (c *collector) add(wc verbs.WC) {
	c.mu.Lock()
	c.wcs = append(c.wcs, wc)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.wcs)
}

func (c *collector) get(i int) verbs.WC {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wcs[i]
}

// env is one wired QP pair with collectors.
type env struct {
	p        *Pair
	qpA, qpB verbs.QP
	pdA, pdB *verbs.PD
	wcsA     *collector
	wcsB     *collector
}

func newEnv(t *testing.T, p *Pair, cfg verbs.QPConfig) *env {
	t.Helper()
	e := &env{p: p, wcsA: &collector{}, wcsB: &collector{}}
	e.pdA, e.pdB = p.A.AllocPD(), p.B.AllocPD()
	cqA := p.A.CreateCQ(p.LoopA, 256).(*verbs.UpcallCQ)
	cqB := p.B.CreateCQ(p.LoopB, 256).(*verbs.UpcallCQ)
	cqA.SetHandler(e.wcsA.add)
	cqB.SetHandler(e.wcsB.add)
	ca, cb := cfg, cfg
	ca.PD, ca.SendCQ, ca.RecvCQ = e.pdA, cqA, cqA
	cb.PD, cb.SendCQ, cb.RecvCQ = e.pdB, cqB, cqB
	var err error
	if e.qpA, err = p.A.CreateQP(ca); err != nil {
		t.Fatalf("conformance: create QP A: %v", err)
	}
	if e.qpB, err = p.B.CreateQP(cb); err != nil {
		t.Fatalf("conformance: create QP B: %v", err)
	}
	if err := p.ConnectQPs(e.qpA, e.qpB); err != nil {
		t.Fatalf("conformance: connect: %v", err)
	}
	return e
}

func (e *env) settleCount(t *testing.T, c *collector, n int) {
	t.Helper()
	if !e.p.Settle(func() bool { return c.count() >= n }) {
		t.Fatalf("conformance: timed out waiting for %d completions (have %d)", n, c.count())
	}
}

// Run executes the battery against the fabric.
func Run(t *testing.T, factory Factory) {
	t.Run("SendRecvIntegrity", func(t *testing.T) { testSendRecv(t, factory(t)) })
	t.Run("WritePlacement", func(t *testing.T) { testWrite(t, factory(t)) })
	t.Run("WriteImmConsumesRecv", func(t *testing.T) { testWriteImm(t, factory(t)) })
	t.Run("ReadRoundTrip", func(t *testing.T) { testRead(t, factory(t)) })
	t.Run("ReadDepthQueued", func(t *testing.T) { testReadDepthQueued(t, factory(t)) })
	t.Run("RemoteAccessError", func(t *testing.T) { testAccessError(t, factory(t)) })
	t.Run("SendQueueCap", func(t *testing.T) { testQueueCap(t, factory(t)) })
	t.Run("BadWRRejected", func(t *testing.T) { testBadWR(t, factory(t)) })
	t.Run("RecvTooSmall", func(t *testing.T) { testRecvTooSmall(t, factory(t)) })
	t.Run("CloseFlushesRecvs", func(t *testing.T) { testCloseFlush(t, factory(t)) })
	t.Run("WriteOrdering", func(t *testing.T) { testOrdering(t, factory(t)) })
	t.Run("UnsignaledSend", func(t *testing.T) { testUnsignaled(t, factory(t)) })
	t.Run("LargePayloadRoundTrip", func(t *testing.T) { testLargeRoundTrip(t, factory(t)) })
	t.Run("PostRecvNoAlloc", func(t *testing.T) { testPostRecvNoAlloc(t, factory(t)) })
}

func testSendRecv(t *testing.T, p *Pair) {
	e := newEnv(t, p, verbs.QPConfig{MaxSend: 32, MaxRecv: 32})
	buf := make([]byte, 512)
	mr, err := p.B.RegisterMR(e.pdB, buf, verbs.AccessLocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.qpB.PostRecv(&verbs.RecvWR{WRID: 7, MR: mr, Len: 512}); err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 300)
	rand.New(rand.NewSource(1)).Read(msg)
	if err := e.qpA.PostSend(&verbs.SendWR{WRID: 1, Op: verbs.OpSend, Data: msg, Imm: 55}); err != nil {
		t.Fatal(err)
	}
	e.settleCount(t, e.wcsB, 1)
	wc := e.wcsB.get(0)
	if wc.Op != verbs.OpRecv || wc.WRID != 7 || wc.Imm != 55 || wc.Status != verbs.StatusSuccess {
		t.Fatalf("recv WC: %+v", wc)
	}
	if !bytes.Equal(wc.Data, msg) {
		t.Fatalf("payload mismatch (%d vs %d bytes)", len(wc.Data), len(msg))
	}
	e.settleCount(t, e.wcsA, 1)
	if got := e.wcsA.get(0); got.Status != verbs.StatusSuccess || got.Op != verbs.OpSend {
		t.Fatalf("send WC: %+v", got)
	}
}

func testWrite(t *testing.T, p *Pair) {
	e := newEnv(t, p, verbs.QPConfig{MaxSend: 32, MaxRecv: 32})
	sink := make([]byte, 4096)
	mr, err := p.B.RegisterMR(e.pdB, sink, verbs.AccessRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 2048)
	rand.New(rand.NewSource(2)).Read(payload)
	if err := e.qpA.PostSend(&verbs.SendWR{WRID: 3, Op: verbs.OpWrite, Data: payload, Remote: mr.Remote(1024)}); err != nil {
		t.Fatal(err)
	}
	e.settleCount(t, e.wcsA, 1)
	if wc := e.wcsA.get(0); wc.Status != verbs.StatusSuccess || wc.ByteLen != 2048 {
		t.Fatalf("write WC: %+v", wc)
	}
	if !bytes.Equal(sink[1024:1024+2048], payload) {
		t.Fatal("write not placed at offset")
	}
	if e.wcsB.count() != 0 {
		t.Fatal("plain WRITE generated receiver completions")
	}
}

func testWriteImm(t *testing.T, p *Pair) {
	e := newEnv(t, p, verbs.QPConfig{MaxSend: 32, MaxRecv: 32})
	sink := make([]byte, 1024)
	mr, _ := p.B.RegisterMR(e.pdB, sink, verbs.AccessRemoteWrite)
	small, _ := p.B.RegisterMR(e.pdB, make([]byte, 16), verbs.AccessLocalWrite)
	if err := e.qpB.PostRecv(&verbs.RecvWR{WRID: 70, MR: small, Len: 16}); err != nil {
		t.Fatal(err)
	}
	if err := e.qpA.PostSend(&verbs.SendWR{WRID: 4, Op: verbs.OpWriteImm,
		Data: []byte("imm-write"), Remote: mr.Remote(0), Imm: 9090}); err != nil {
		t.Fatal(err)
	}
	e.settleCount(t, e.wcsB, 1)
	wc := e.wcsB.get(0)
	if wc.Op != verbs.OpWriteImm || wc.Imm != 9090 || wc.WRID != 70 {
		t.Fatalf("imm WC: %+v", wc)
	}
	if string(sink[:9]) != "imm-write" {
		t.Fatal("imm write not placed")
	}
}

func testRead(t *testing.T, p *Pair) {
	e := newEnv(t, p, verbs.QPConfig{MaxSend: 32, MaxRecv: 32})
	remote := make([]byte, 1024)
	rand.New(rand.NewSource(3)).Read(remote)
	rmr, _ := p.B.RegisterMR(e.pdB, remote, verbs.AccessRemoteRead)
	local := make([]byte, 1024)
	lmr, _ := p.A.RegisterMR(e.pdA, local, verbs.AccessLocalWrite)
	if err := e.qpA.PostSend(&verbs.SendWR{WRID: 5, Op: verbs.OpRead,
		Remote: rmr.Remote(256), ReadLen: 512, Local: lmr, LocalOffset: 100}); err != nil {
		t.Fatal(err)
	}
	e.settleCount(t, e.wcsA, 1)
	if wc := e.wcsA.get(0); wc.Status != verbs.StatusSuccess || wc.Op != verbs.OpRead || wc.ByteLen != 512 {
		t.Fatalf("read WC: %+v", wc)
	}
	if !bytes.Equal(local[100:100+512], remote[256:256+512]) {
		t.Fatal("read data mismatch")
	}
	if e.wcsB.count() != 0 {
		t.Fatal("READ generated responder completions")
	}
}

// testReadDepthQueued: posting more READs than the initiator depth
// (MaxRDAtomic) must QUEUE the excess, not reject it or exceed the
// depth — hardware holds extra READs in the send queue and releases
// them as responses return. All of them must complete with the right
// data.
func testReadDepthQueued(t *testing.T, p *Pair) {
	e := newEnv(t, p, verbs.QPConfig{MaxSend: 32, MaxRDAtomic: 2})
	const n, chunk = 16, 64
	remote := make([]byte, n*chunk)
	rand.New(rand.NewSource(11)).Read(remote)
	rmr, _ := p.B.RegisterMR(e.pdB, remote, verbs.AccessRemoteRead)
	local := make([]byte, n*chunk)
	lmr, _ := p.A.RegisterMR(e.pdA, local, verbs.AccessLocalWrite)
	for i := 0; i < n; i++ {
		err := e.qpA.PostSend(&verbs.SendWR{WRID: uint64(100 + i), Op: verbs.OpRead,
			Remote: rmr.Remote(i * chunk), ReadLen: chunk, Local: lmr, LocalOffset: i * chunk})
		if err != nil {
			t.Fatalf("READ %d of %d rejected past initiator depth 2: %v", i, n, err)
		}
	}
	e.settleCount(t, e.wcsA, n)
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		wc := e.wcsA.get(i)
		if wc.Status != verbs.StatusSuccess || wc.Op != verbs.OpRead || wc.ByteLen != chunk {
			t.Fatalf("READ WC %d: %+v", i, wc)
		}
		seen[wc.WRID] = true
	}
	if len(seen) != n {
		t.Fatalf("got %d distinct READ completions, want %d", len(seen), n)
	}
	if !bytes.Equal(local, remote) {
		t.Fatal("queued READs returned wrong data")
	}
}

func testAccessError(t *testing.T, p *Pair) {
	e := newEnv(t, p, verbs.QPConfig{MaxSend: 32, MaxRecv: 32})
	mr, _ := p.B.RegisterMR(e.pdB, make([]byte, 64), verbs.AccessRemoteRead) // no write
	if err := e.qpA.PostSend(&verbs.SendWR{WRID: 6, Op: verbs.OpWrite, Data: []byte("x"), Remote: mr.Remote(0)}); err != nil {
		t.Fatal(err)
	}
	e.settleCount(t, e.wcsA, 1)
	if wc := e.wcsA.get(0); wc.Status != verbs.StatusRemoteAccessError {
		t.Fatalf("status = %v, want remote access error", wc.Status)
	}
	// The QP must end up unusable.
	if !p.Settle(func() bool {
		err := e.qpA.PostSend(&verbs.SendWR{Op: verbs.OpSend, Data: []byte("y")})
		return err == verbs.ErrQPError || err == verbs.ErrQPClosed
	}) {
		t.Fatal("QP still usable after remote access error")
	}

	// The error flushes what is queued behind it: at initiator depth 1,
	// two valid READs wait behind one to a bad rkey. The bad READ
	// completes first, then both flush, in posting order, and nothing
	// else completes.
	e = newEnv(t, p, verbs.QPConfig{MaxSend: 32, MaxRecv: 32, MaxRDAtomic: 1})
	rmr, _ := p.B.RegisterMR(e.pdB, make([]byte, 64), verbs.AccessRemoteRead)
	lmr, _ := p.A.RegisterMR(e.pdA, make([]byte, 64), verbs.AccessLocalWrite)
	bad := rmr.Remote(0)
	bad.RKey++ // an lkey, never an rkey
	posted := 0
	for i, remote := range []verbs.RemoteAddr{bad, rmr.Remote(0), rmr.Remote(0)} {
		err := e.qpA.PostSend(&verbs.SendWR{WRID: uint64(30 + i), Op: verbs.OpRead,
			Remote: remote, ReadLen: 64, Local: lmr})
		if err == verbs.ErrQPError && i > 0 {
			// The bad READ's error came back before this post (a real
			// transport can answer it that fast): the QP refuses the
			// rest, and only what it accepted completes.
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		posted++
	}
	e.settleCount(t, e.wcsA, posted)
	for i, want := range []verbs.Status{verbs.StatusRemoteAccessError, verbs.StatusFlushed, verbs.StatusFlushed}[:posted] {
		if wc := e.wcsA.get(i); wc.WRID != uint64(30+i) || wc.Status != want {
			t.Fatalf("READ completion %d: %+v, want WRID %d %v", i, wc, 30+i, want)
		}
	}
	if n := e.wcsA.count(); n != posted {
		t.Fatalf("%d READ completions, want %d", n, posted)
	}
}

func testQueueCap(t *testing.T, p *Pair) {
	e := newEnv(t, p, verbs.QPConfig{MaxSend: 2, MaxRecv: 4})
	mr, _ := p.B.RegisterMR(e.pdB, make([]byte, 4096), verbs.AccessRemoteWrite)
	post := func() error {
		return e.qpA.PostSend(&verbs.SendWR{Op: verbs.OpWrite, Data: make([]byte, 1024), Remote: mr.Remote(0)})
	}
	var sawFull bool
	for i := 0; i < 64; i++ {
		if err := post(); err == verbs.ErrSendQueueFull {
			sawFull = true
			break
		} else if err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if !sawFull {
		t.Fatal("send queue never reported full at depth 2")
	}
	// After completions drain, posting works again.
	if !p.Settle(func() bool { return post() == nil }) {
		t.Fatal("queue never drained")
	}
}

func testBadWR(t *testing.T, p *Pair) {
	e := newEnv(t, p, verbs.QPConfig{MaxSend: 8, MaxRecv: 8})
	if err := e.qpA.PostSend(&verbs.SendWR{Op: verbs.OpSend}); err != verbs.ErrBadWR {
		t.Fatalf("empty SEND: %v", err)
	}
	if err := e.qpA.PostSend(&verbs.SendWR{Op: verbs.OpRead, ReadLen: 64}); err != verbs.ErrBadWR {
		t.Fatalf("READ without local: %v", err)
	}
	if err := e.qpA.PostSend(&verbs.SendWR{Op: verbs.Opcode(99), Data: []byte("x")}); err != verbs.ErrBadWR {
		t.Fatalf("bogus opcode: %v", err)
	}
	mr, _ := p.B.RegisterMR(e.pdB, make([]byte, 8), verbs.AccessLocalWrite)
	if err := e.qpB.PostRecv(&verbs.RecvWR{MR: mr, Len: 64}); err != verbs.ErrBadWR {
		t.Fatalf("oversized recv window: %v", err)
	}
	if err := e.qpB.PostRecv(&verbs.RecvWR{MR: nil, Len: 8}); err != verbs.ErrBadWR {
		t.Fatalf("nil MR recv: %v", err)
	}
}

func testRecvTooSmall(t *testing.T, p *Pair) {
	e := newEnv(t, p, verbs.QPConfig{MaxSend: 8, MaxRecv: 8})
	mr, _ := p.B.RegisterMR(e.pdB, make([]byte, 16), verbs.AccessLocalWrite)
	if err := e.qpB.PostRecv(&verbs.RecvWR{WRID: 1, MR: mr, Len: 16}); err != nil {
		t.Fatal(err)
	}
	if err := e.qpA.PostSend(&verbs.SendWR{WRID: 2, Op: verbs.OpSend, Data: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	e.settleCount(t, e.wcsA, 1)
	if wc := e.wcsA.get(0); wc.Status != verbs.StatusRemoteAccessError {
		t.Fatalf("oversized SEND status = %v", wc.Status)
	}
}

func testCloseFlush(t *testing.T, p *Pair) {
	e := newEnv(t, p, verbs.QPConfig{MaxSend: 8, MaxRecv: 8})
	mr, _ := p.B.RegisterMR(e.pdB, make([]byte, 64), verbs.AccessLocalWrite)
	e.qpB.PostRecv(&verbs.RecvWR{WRID: 21, MR: mr, Len: 64})
	e.qpB.PostRecv(&verbs.RecvWR{WRID: 22, MR: mr, Len: 64})
	if err := e.qpB.Close(); err != nil {
		t.Fatal(err)
	}
	e.settleCount(t, e.wcsB, 2)
	for i := 0; i < 2; i++ {
		if wc := e.wcsB.get(i); wc.Status != verbs.StatusFlushed {
			t.Fatalf("flush WC %d: %+v", i, wc)
		}
	}
	if err := e.qpB.Close(); err != verbs.ErrQPClosed {
		t.Fatalf("double close: %v", err)
	}
	if err := e.qpB.PostRecv(&verbs.RecvWR{WRID: 23, MR: mr, Len: 64}); err != verbs.ErrQPClosed {
		t.Fatalf("post after close: %v", err)
	}

	// Close completes what the send queue owes: at initiator depth 1 the
	// READs already released to the wire may still succeed, and the ones
	// queued behind them flush. Each completes exactly once, and none
	// succeeds after an earlier one flushed.
	e = newEnv(t, p, verbs.QPConfig{MaxSend: 8, MaxRecv: 8, MaxRDAtomic: 1})
	rmr, _ := p.B.RegisterMR(e.pdB, make([]byte, 64), verbs.AccessRemoteRead)
	lmr, _ := p.A.RegisterMR(e.pdA, make([]byte, 64), verbs.AccessLocalWrite)
	for i := 0; i < 3; i++ {
		if err := e.qpA.PostSend(&verbs.SendWR{WRID: uint64(40 + i), Op: verbs.OpRead,
			Remote: rmr.Remote(0), ReadLen: 64, Local: lmr}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.qpA.Close(); err != nil {
		t.Fatal(err)
	}
	e.settleCount(t, e.wcsA, 3)
	var seen, flushed [3]bool // by posting order
	for i := 0; i < e.wcsA.count(); i++ {
		wc := e.wcsA.get(i)
		if wc.WRID < 40 || wc.WRID > 42 || seen[wc.WRID-40] ||
			wc.Status != verbs.StatusSuccess && wc.Status != verbs.StatusFlushed {
			t.Fatalf("READ completion %d after close: %+v", i, wc)
		}
		seen[wc.WRID-40], flushed[wc.WRID-40] = true, wc.Status == verbs.StatusFlushed
	}
	if flushed[0] && !flushed[1] || flushed[1] && !flushed[2] {
		t.Fatalf("a READ succeeded after an earlier one flushed: flushed %v", flushed)
	}

	// A SEND parked at a responder with no receive posted is refused at
	// its sender when the responder closes.
	e = newEnv(t, p, verbs.QPConfig{MaxSend: 8, MaxRecv: 8})
	if err := e.qpA.PostSend(&verbs.SendWR{WRID: 50, Op: verbs.OpSend, Data: []byte("parked")}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // a real-time fabric parks it by now
	if err := e.qpB.Close(); err != nil {
		t.Fatal(err)
	}
	e.settleCount(t, e.wcsA, 1)
	if wc := e.wcsA.get(0); wc.WRID != 50 || wc.Status == verbs.StatusSuccess {
		t.Fatalf("parked SEND after responder close: %+v", wc)
	}
}

func testOrdering(t *testing.T, p *Pair) {
	e := newEnv(t, p, verbs.QPConfig{MaxSend: 128, MaxRecv: 8})
	sink := make([]byte, 8)
	mr, _ := p.B.RegisterMR(e.pdB, sink, verbs.AccessRemoteWrite)
	const n = 64
	for i := 0; i < n; i++ {
		if err := e.qpA.PostSend(&verbs.SendWR{WRID: uint64(i), Op: verbs.OpWrite,
			Data: []byte{byte(i)}, Remote: mr.Remote(0)}); err != nil {
			t.Fatal(err)
		}
	}
	e.settleCount(t, e.wcsA, n)
	if sink[0] != n-1 {
		t.Fatalf("last write = %d, want %d (per-QP ordering)", sink[0], n-1)
	}
	// Completions arrive in posting order.
	for i := 0; i < n; i++ {
		if e.wcsA.get(i).WRID != uint64(i) {
			t.Fatalf("completion %d has WRID %d", i, e.wcsA.get(i).WRID)
		}
	}
}

func testUnsignaled(t *testing.T, p *Pair) {
	e := newEnv(t, p, verbs.QPConfig{MaxSend: 8, MaxRecv: 8})
	sink := make([]byte, 64)
	mr, _ := p.B.RegisterMR(e.pdB, sink, verbs.AccessRemoteWrite)
	for i := 0; i < 4; i++ {
		if err := e.qpA.PostSend(&verbs.SendWR{Op: verbs.OpWrite, Data: []byte{1},
			Remote: mr.Remote(i), NoCompletion: true}); err != nil {
			t.Fatal(err)
		}
	}
	// A signaled marker write after the unsignaled batch.
	if err := e.qpA.PostSend(&verbs.SendWR{WRID: 99, Op: verbs.OpWrite, Data: []byte{2}, Remote: mr.Remote(10)}); err != nil {
		t.Fatal(err)
	}
	e.settleCount(t, e.wcsA, 1)
	if wc := e.wcsA.get(0); wc.WRID != 99 {
		t.Fatalf("expected only the marker completion, got %+v", wc)
	}
	if e.wcsA.count() != 1 {
		t.Fatalf("unsignaled writes completed: %d WCs", e.wcsA.count())
	}
	for i := 0; i < 4; i++ {
		if sink[i] != 1 {
			t.Fatalf("unsignaled write %d not placed", i)
		}
	}
}

// testLargeRoundTrip pushes a transfer-sized payload through the
// one-sided path both ways: WRITE it into a remote region at an
// offset, READ it back into a different local region, and compare
// byte-for-byte. This exercises in-place placement paths (fabrics that
// land wire payload directly in the registered region) with data large
// enough that a staging bug or short read would corrupt it.
func testLargeRoundTrip(t *testing.T, p *Pair) {
	e := newEnv(t, p, verbs.QPConfig{MaxSend: 8, MaxRecv: 8})
	const size = 1 << 20
	const off = 4096
	sink := make([]byte, size+2*off)
	rmr, err := p.B.RegisterMR(e.pdB, sink, verbs.AccessRemoteWrite|verbs.AccessRemoteRead)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	rand.New(rand.NewSource(42)).Read(payload)
	if err := e.qpA.PostSend(&verbs.SendWR{WRID: 1, Op: verbs.OpWrite, Data: payload, Remote: rmr.Remote(off)}); err != nil {
		t.Fatal(err)
	}
	e.settleCount(t, e.wcsA, 1)
	if wc := e.wcsA.get(0); wc.Status != verbs.StatusSuccess || wc.ByteLen != size {
		t.Fatalf("large write WC: %+v", wc)
	}
	if !bytes.Equal(sink[off:off+size], payload) {
		t.Fatal("large write corrupted in flight")
	}
	if sink[off-1] != 0 || sink[off+size] != 0 {
		t.Fatal("large write spilled outside its window")
	}
	local := make([]byte, size)
	lmr, err := p.A.RegisterMR(e.pdA, local, verbs.AccessLocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.qpA.PostSend(&verbs.SendWR{WRID: 2, Op: verbs.OpRead,
		Remote: rmr.Remote(off), ReadLen: size, Local: lmr}); err != nil {
		t.Fatal(err)
	}
	e.settleCount(t, e.wcsA, 2)
	if wc := e.wcsA.get(1); wc.Status != verbs.StatusSuccess || wc.ByteLen != size {
		t.Fatalf("large read WC: %+v", wc)
	}
	if !bytes.Equal(local, payload) {
		t.Fatal("large read-back mismatch")
	}
}

// testPostRecvNoAlloc: PostRecv copies the WR into the receive queue,
// so posting a receive allocates nothing.
func testPostRecvNoAlloc(t *testing.T, p *Pair) {
	e := newEnv(t, p, verbs.QPConfig{MaxSend: 8, MaxRecv: 2048})
	mr, _ := p.B.RegisterMR(e.pdB, make([]byte, 64), verbs.AccessLocalWrite)
	wr := &verbs.RecvWR{MR: mr, Len: 64}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := e.qpB.PostRecv(wr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PostRecv allocates %v times per call", allocs)
	}
}

// SettleRealtime builds a Settle function for wall-clock fabrics.
func SettleRealtime(timeout time.Duration) func(func() bool) bool {
	return func(cond func() bool) bool {
		deadline := time.Now().Add(timeout)
		for {
			if cond() {
				return true
			}
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(time.Millisecond)
		}
	}
}
