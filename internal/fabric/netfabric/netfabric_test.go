package netfabric

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"
	"time"

	"rftp/internal/core"
	"rftp/internal/fabric/chanfabric"
	"rftp/internal/verbs"
)

// pair dials a loopback listener and returns both devices.
func pair(t *testing.T) (*Device, *Device) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	type res struct {
		d   *Device
		err error
	}
	ch := make(chan res, 1)
	go func() {
		d, err := ln.Accept()
		ch <- res{d, err}
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { client.Close(); r.d.Close() })
	return client, r.d
}

// boundQPs creates and binds a QP pair on channel ch.
func boundQPs(t *testing.T, a, b *Device, la, lb verbs.Loop, ch uint32) (verbs.QP, verbs.QP, *verbs.UpcallCQ, *verbs.UpcallCQ) {
	t.Helper()
	cqA := a.CreateCQ(la, 128).(*verbs.UpcallCQ)
	cqB := b.CreateCQ(lb, 128).(*verbs.UpcallCQ)
	qa, err := a.CreateQP(verbs.QPConfig{PD: a.AllocPD(), SendCQ: cqA, RecvCQ: cqA, MaxSend: 64, MaxRecv: 64})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := b.CreateQP(verbs.QPConfig{PD: b.AllocPD(), SendCQ: cqB, RecvCQ: cqB, MaxSend: 64, MaxRecv: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.BindQP(qa, ch); err != nil {
		t.Fatal(err)
	}
	if err := b.BindQP(qb, ch); err != nil {
		t.Fatal(err)
	}
	return qa, qb, cqA, cqB
}

func TestFrameRoundTripOverTCP(t *testing.T) {
	a, b := pair(t)
	la, lb := chanfabric.NewLoop("a"), chanfabric.NewLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	qa, qb, cqA, cqB := boundQPs(t, a, b, la, lb, 0)

	gotB := make(chan verbs.WC, 16)
	gotA := make(chan verbs.WC, 16)
	cqB.SetHandler(func(wc verbs.WC) { gotB <- wc })
	cqA.SetHandler(func(wc verbs.WC) { gotA <- wc })

	buf := make([]byte, 256)
	mr, _ := b.RegisterMR(&verbs.PD{}, buf, verbs.AccessLocalWrite)
	if err := qb.PostRecv(&verbs.RecvWR{WRID: 1, MR: mr, Len: 256}); err != nil {
		t.Fatal(err)
	}
	msg := []byte("over the real wire")
	if err := qa.PostSend(&verbs.SendWR{WRID: 2, Op: verbs.OpSend, Data: msg, Imm: 77}); err != nil {
		t.Fatal(err)
	}
	select {
	case wc := <-gotB:
		if !bytes.Equal(wc.Data, msg) || wc.Imm != 77 {
			t.Fatalf("recv WC: %+v", wc)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv timeout")
	}
	select {
	case wc := <-gotA:
		if wc.Status != verbs.StatusSuccess || wc.WRID != 2 {
			t.Fatalf("send WC: %+v", wc)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ack timeout")
	}
}

func TestWriteAndReadOverTCP(t *testing.T) {
	a, b := pair(t)
	la, lb := chanfabric.NewLoop("a"), chanfabric.NewLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	qa, _, cqA, _ := boundQPs(t, a, b, la, lb, 0)
	got := make(chan verbs.WC, 16)
	cqA.SetHandler(func(wc verbs.WC) { got <- wc })

	sink := make([]byte, 4096)
	mr, _ := b.RegisterMR(&verbs.PD{}, sink, verbs.AccessRemoteWrite|verbs.AccessRemoteRead)
	payload := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(payload)
	if err := qa.PostSend(&verbs.SendWR{WRID: 1, Op: verbs.OpWrite, Data: payload, Remote: mr.Remote(0)}); err != nil {
		t.Fatal(err)
	}
	select {
	case wc := <-got:
		if wc.Status != verbs.StatusSuccess {
			t.Fatalf("write WC: %+v", wc)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write timeout")
	}
	b.Sync() // order the reader's in-place placement before our read
	if !bytes.Equal(sink, payload) {
		t.Fatal("write payload mismatch")
	}

	// Read it back.
	local := make([]byte, 4096)
	lmr, _ := a.RegisterMR(&verbs.PD{}, local, verbs.AccessLocalWrite)
	if err := qa.PostSend(&verbs.SendWR{WRID: 2, Op: verbs.OpRead, Remote: mr.Remote(0), ReadLen: 4096, Local: lmr}); err != nil {
		t.Fatal(err)
	}
	select {
	case wc := <-got:
		if wc.Status != verbs.StatusSuccess || wc.Op != verbs.OpRead {
			t.Fatalf("read WC: %+v", wc)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read timeout")
	}
	if !bytes.Equal(local, payload) {
		t.Fatal("read payload mismatch")
	}
}

func TestRemoteAccessErrorOverTCP(t *testing.T) {
	a, b := pair(t)
	la, lb := chanfabric.NewLoop("a"), chanfabric.NewLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	qa, _, cqA, _ := boundQPs(t, a, b, la, lb, 0)
	got := make(chan verbs.WC, 16)
	cqA.SetHandler(func(wc verbs.WC) { got <- wc })
	mr, _ := b.RegisterMR(&verbs.PD{}, make([]byte, 64), verbs.AccessRemoteRead) // no write
	if err := qa.PostSend(&verbs.SendWR{WRID: 1, Op: verbs.OpWrite, Data: []byte("x"), Remote: mr.Remote(0)}); err != nil {
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

func TestEarlyFramesParkedUntilBind(t *testing.T) {
	a, b := pair(t)
	la, lb := chanfabric.NewLoop("a"), chanfabric.NewLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	// Bind only the sender side first.
	cqA := a.CreateCQ(la, 16).(*verbs.UpcallCQ)
	qa, _ := a.CreateQP(verbs.QPConfig{PD: a.AllocPD(), SendCQ: cqA, RecvCQ: cqA})
	if err := a.BindQP(qa, 5); err != nil {
		t.Fatal(err)
	}
	gotA := make(chan verbs.WC, 4)
	cqA.SetHandler(func(wc verbs.WC) { gotA <- wc })

	sink := make([]byte, 64)
	mr, _ := b.RegisterMR(&verbs.PD{}, sink, verbs.AccessRemoteWrite)
	if err := qa.PostSend(&verbs.SendWR{WRID: 9, Op: verbs.OpWrite, Data: []byte("early"), Remote: mr.Remote(0)}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // frame arrives pre-bind, parks

	cqB := b.CreateCQ(lb, 16).(*verbs.UpcallCQ)
	cqB.SetHandler(func(verbs.WC) {})
	qb, _ := b.CreateQP(verbs.QPConfig{PD: b.AllocPD(), SendCQ: cqB, RecvCQ: cqB})
	if err := b.BindQP(qb, 5); err != nil {
		t.Fatal(err)
	}
	select {
	case wc := <-gotA:
		if wc.Status != verbs.StatusSuccess {
			t.Fatalf("parked write WC: %+v", wc)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked frame never applied")
	}
	b.Sync()
	if string(sink[:5]) != "early" {
		t.Fatal("parked frame not placed")
	}
}

func TestDuplicateBindRejected(t *testing.T) {
	a, _ := pair(t)
	la := chanfabric.NewLoop("a")
	t.Cleanup(func() { la.Stop() })
	cq := a.CreateCQ(la, 4).(*verbs.UpcallCQ)
	q1, _ := a.CreateQP(verbs.QPConfig{PD: a.AllocPD(), SendCQ: cq, RecvCQ: cq})
	q2, _ := a.CreateQP(verbs.QPConfig{PD: a.AllocPD(), SendCQ: cq, RecvCQ: cq})
	if err := a.BindQP(q1, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.BindQP(q2, 1); err == nil {
		t.Fatal("duplicate channel bind accepted")
	}
}

func TestPeerCloseFailsQPs(t *testing.T) {
	a, b := pair(t)
	la, lb := chanfabric.NewLoop("a"), chanfabric.NewLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	qa, _, cqA, _ := boundQPs(t, a, b, la, lb, 0)
	cqA.SetHandler(func(verbs.WC) {})
	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := qa.PostSend(&verbs.SendWR{Op: verbs.OpSend, Data: []byte("x")})
		if err == verbs.ErrQPError || err == verbs.ErrQPClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("QP survived peer close: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRFTPOverTCP runs the full protocol core across a real socket.
func TestRFTPOverTCP(t *testing.T) {
	client, server := pair(t)
	srcLoop, dstLoop := chanfabric.NewLoop("src"), chanfabric.NewLoop("dst")
	t.Cleanup(func() { srcLoop.Stop(); dstLoop.Stop() })

	cfg := core.DefaultConfig()
	cfg.BlockSize = 64 << 10
	cfg.Channels = 2
	cfg.IODepth = 8

	srcEP, err := core.NewEndpoint(client, srcLoop, cfg.Channels, cfg.IODepth)
	if err != nil {
		t.Fatal(err)
	}
	dstEP, err := core.NewEndpoint(server, dstLoop, cfg.Channels, cfg.IODepth)
	if err != nil {
		t.Fatal(err)
	}
	if err := srcEP.Bind(client.BindQP); err != nil {
		t.Fatal(err)
	}
	if err := dstEP.Bind(server.BindQP); err != nil {
		t.Fatal(err)
	}

	sink, err := core.NewSink(dstEP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	done := make(chan error, 2)
	sink.NewWriter = func(core.SessionInfo) core.BlockSink { return core.WriterSink{W: &out} }
	sink.OnSessionDone = func(info core.SessionInfo, r core.TransferResult) { done <- r.Err }

	source, err := core.NewSource(srcEP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5<<20+777)
	rand.New(rand.NewSource(42)).Read(data)
	srcLoop.Post(0, func() {
		source.Start(func(err error) {
			if err != nil {
				done <- err
				done <- err
				return
			}
			source.Transfer(core.ReaderSource{R: bytes.NewReader(data)}, int64(len(data)),
				func(r core.TransferResult) { done <- r.Err })
		})
	})
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("transfer: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("RFTP-over-TCP timed out")
		}
	}
	if sha256.Sum256(out.Bytes()) != sha256.Sum256(data) {
		t.Fatalf("corrupted: %d bytes vs %d", out.Len(), len(data))
	}
}

func TestFrameEncodingLimits(t *testing.T) {
	// Oversized frame length on the wire must be rejected.
	var hdr [frameHeaderLen]byte
	hdr[0] = frSend
	hdr[30], hdr[31], hdr[32], hdr[33] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:]))); err != ErrFrameTooLarge {
		t.Fatalf("oversized frame: %v", err)
	}
}
