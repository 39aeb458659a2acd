package netfabric

import (
	"bufio"
	"bytes"
	"testing"
	"time"

	"rftp/internal/fabric/chanfabric"
	"rftp/internal/telemetry"
	"rftp/internal/verbs"
)

func TestRNRStallCounter(t *testing.T) {
	a, b := pair(t)
	la, lb := chanfabric.NewLoop("a"), chanfabric.NewLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	qa, qb, cqA, cqB := boundQPs(t, a, b, la, lb, 0)
	cqA.SetHandler(func(verbs.WC) {})
	got := make(chan verbs.WC, 4)
	cqB.SetHandler(func(wc verbs.WC) { got <- wc })

	if err := qa.PostSend(&verbs.SendWR{WRID: 1, Op: verbs.OpSend, Data: []byte("early")}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.RNRStalls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no RNR stall recorded")
		}
		time.Sleep(time.Millisecond)
	}
	mr, _ := b.RegisterMR(&verbs.PD{}, make([]byte, 64), verbs.AccessLocalWrite)
	if err := qb.PostRecv(&verbs.RecvWR{WRID: 2, MR: mr, Len: 64}); err != nil {
		t.Fatal(err)
	}
	select {
	case wc := <-got:
		if string(wc.Data) != "early" {
			t.Fatalf("delivered %q", wc.Data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked SEND never delivered")
	}
}

func TestByteCountersAdvance(t *testing.T) {
	a, b := pair(t)
	la, lb := chanfabric.NewLoop("a"), chanfabric.NewLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	qa, _, cqA, _ := boundQPs(t, a, b, la, lb, 0)
	done := make(chan verbs.WC, 1)
	cqA.SetHandler(func(wc verbs.WC) { done <- wc })
	sink := make([]byte, 1<<16)
	mr, _ := b.RegisterMR(&verbs.PD{}, sink, verbs.AccessRemoteWrite)
	payload := make([]byte, 1<<16)
	if err := qa.PostSend(&verbs.SendWR{WRID: 1, Op: verbs.OpWrite, Data: payload, Remote: mr.Remote(0)}); err != nil {
		t.Fatal(err)
	}
	<-done
	if a.TxBytes.Load() < 1<<16 {
		t.Fatalf("TxBytes = %d", a.TxBytes.Load())
	}
	if b.RxBytes.Load() < 1<<16 {
		t.Fatalf("RxBytes = %d", b.RxBytes.Load())
	}
}

func TestReadBadParamsRejectedLocally(t *testing.T) {
	a, b := pair(t)
	la, lb := chanfabric.NewLoop("a"), chanfabric.NewLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	qa, _, cqA, _ := boundQPs(t, a, b, la, lb, 0)
	cqA.SetHandler(func(verbs.WC) {})
	local, _ := a.RegisterMR(&verbs.PD{}, make([]byte, 64), verbs.AccessLocalWrite)
	// ReadLen beyond the local region.
	err := qa.PostSend(&verbs.SendWR{Op: verbs.OpRead, ReadLen: 128, Local: local,
		Remote: verbs.RemoteAddr{Addr: 1, RKey: 1}})
	if err != verbs.ErrBadWR {
		t.Fatalf("oversized local read: %v", err)
	}
	// Negative offset.
	err = qa.PostSend(&verbs.SendWR{Op: verbs.OpRead, ReadLen: 8, Local: local, LocalOffset: -1,
		Remote: verbs.RemoteAddr{Addr: 1, RKey: 1}})
	if err != verbs.ErrBadWR {
		t.Fatalf("negative offset: %v", err)
	}
}

func TestReadRemoteErrorOverTCP(t *testing.T) {
	a, b := pair(t)
	la, lb := chanfabric.NewLoop("a"), chanfabric.NewLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	qa, _, cqA, _ := boundQPs(t, a, b, la, lb, 0)
	got := make(chan verbs.WC, 1)
	cqA.SetHandler(func(wc verbs.WC) { got <- wc })
	local, _ := a.RegisterMR(&verbs.PD{}, make([]byte, 64), verbs.AccessLocalWrite)
	// Bogus remote region.
	err := qa.PostSend(&verbs.SendWR{WRID: 9, Op: verbs.OpRead, ReadLen: 8, Local: local,
		Remote: verbs.RemoteAddr{Addr: 0x1234, RKey: 0x9999}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case wc := <-got:
		if wc.Status != verbs.StatusRemoteAccessError {
			t.Fatalf("status = %v", wc.Status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestUnsignaledSendOverTCP(t *testing.T) {
	a, b := pair(t)
	la, lb := chanfabric.NewLoop("a"), chanfabric.NewLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	qa, _, cqA, _ := boundQPs(t, a, b, la, lb, 0)
	var completions int
	cqA.SetHandler(func(verbs.WC) { completions++ })
	sink := make([]byte, 1024)
	mr, _ := b.RegisterMR(&verbs.PD{}, sink, verbs.AccessRemoteWrite)
	for i := 0; i < 8; i++ {
		if err := qa.PostSend(&verbs.SendWR{Op: verbs.OpWrite, Data: []byte("q"),
			Remote: mr.Remote(i), NoCompletion: true}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.RxBytes.Load() < 8 {
		if time.Now().After(deadline) {
			t.Fatal("writes never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	// The send queue must have drained (outstanding decremented) so new
	// posts succeed, yet no success completions were dispatched.
	if err := qa.PostSend(&verbs.SendWR{Op: verbs.OpWrite, Data: []byte("q"), Remote: mr.Remote(0), NoCompletion: true}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if completions != 0 {
		t.Fatalf("unsignaled writes produced %d completions", completions)
	}
}

func TestGoodbyeFrameTearsDown(t *testing.T) {
	a, b := pair(t)
	la, lb := chanfabric.NewLoop("a"), chanfabric.NewLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	qa, _, cqA, _ := boundQPs(t, a, b, la, lb, 0)
	cqA.SetHandler(func(verbs.WC) {})
	closed := make(chan struct{})
	a.SetOnClose(func(error) { close(closed) })
	// The peer announces an orderly shutdown.
	b.send(&frame{op: frGoodbye})
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("goodbye ignored")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := qa.PostSend(&verbs.SendWR{Op: verbs.OpSend, Data: []byte("x")}); err == verbs.ErrQPError {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("QP survived goodbye")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFrameRoundTripUnit(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	in := &frame{op: frWrite, status: 2, channel: 7, token: 99, addr: 0xABCDEF, rkey: 5, imm: 6, payload: []byte("data")}
	if err := writeFrame(w, in); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	out, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if out.op != in.op || out.status != in.status || out.channel != in.channel ||
		out.token != in.token || out.addr != in.addr || out.rkey != in.rkey ||
		out.imm != in.imm || !bytes.Equal(out.payload, in.payload) {
		t.Fatalf("round trip: %+v vs %+v", in, out)
	}
}

func TestFrameTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	writeFrame(w, &frame{op: frSend, payload: []byte("hello")})
	w.Flush()
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(full[:cut]))); err == nil {
			t.Fatalf("truncated frame at %d accepted", cut)
		}
	}
}

func TestStatusMapping(t *testing.T) {
	cases := map[uint8]verbs.Status{
		wsOK:     verbs.StatusSuccess,
		wsAccess: verbs.StatusRemoteAccessError,
		wsRNR:    verbs.StatusRNRRetryExceeded,
		99:       verbs.StatusLocalError,
	}
	for in, want := range cases {
		if got := frameStatusToVerbs(in); got != want {
			t.Errorf("status %d -> %v, want %v", in, got, want)
		}
	}
}

// TestTelemetrySetBeforeFirstBind sets Telemetry on a device whose peer
// has already sent to it but which has bound no QP yet: the I/O
// goroutines start at the first BindQP, so that write is ordered before
// every read of the field. Under -race this fails if the reader runs
// from Dial/Accept.
func TestTelemetrySetBeforeFirstBind(t *testing.T) {
	a, b := pair(t)
	la, lb := chanfabric.NewLoop("a"), chanfabric.NewLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	cqA := a.CreateCQ(la, 16).(*verbs.UpcallCQ)
	gotA := make(chan verbs.WC, 4)
	cqA.SetHandler(func(wc verbs.WC) { gotA <- wc })
	qa, _ := a.CreateQP(verbs.QPConfig{PD: a.AllocPD(), SendCQ: cqA, RecvCQ: cqA})
	if err := a.BindQP(qa, 0); err != nil {
		t.Fatal(err)
	}
	sink := make([]byte, 64)
	mr, _ := b.RegisterMR(&verbs.PD{}, sink, verbs.AccessRemoteWrite)
	if err := qa.PostSend(&verbs.SendWR{WRID: 1, Op: verbs.OpWrite, Data: []byte("early"), Remote: mr.Remote(0)}); err != nil {
		t.Fatal(err)
	}
	// Let the frame reach b's socket: with the reader running before the
	// first bind, it would now have read Telemetry unsynchronized.
	time.Sleep(50 * time.Millisecond)

	b.Telemetry = telemetry.NewFabricMetrics(telemetry.NewRegistry("b"))
	cqB := b.CreateCQ(lb, 16).(*verbs.UpcallCQ)
	cqB.SetHandler(func(verbs.WC) {})
	qb, _ := b.CreateQP(verbs.QPConfig{PD: b.AllocPD(), SendCQ: cqB, RecvCQ: cqB})
	if err := b.BindQP(qb, 0); err != nil {
		t.Fatal(err)
	}
	waitWrite := func() {
		select {
		case wc := <-gotA:
			if wc.Status != verbs.StatusSuccess {
				t.Fatalf("write WC: %+v", wc)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("write never completed")
		}
	}
	waitWrite() // the early WRITE, read off the socket once b binds
	if err := qa.PostSend(&verbs.SendWR{WRID: 2, Op: verbs.OpWrite, Data: []byte("later"), Remote: mr.Remote(0)}); err != nil {
		t.Fatal(err)
	}
	waitWrite()
	b.Sync()
	if string(sink[:5]) != "later" {
		t.Fatalf("sink = %q", sink[:5])
	}
	if got := b.Telemetry.RxBytes(); got < int64(2*(frameHeaderLen+5)) {
		t.Fatalf("Telemetry counted %d rx bytes, want both frames", got)
	}
}

// TestCloseUnboundDevice closes a dialed device that never bound a QP,
// so its I/O goroutines never started: Close must not wait for them.
func TestCloseUnboundDevice(t *testing.T) {
	a, _ := pair(t)
	start := time.Now()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Close of an unbound device took %v", d)
	}
}
