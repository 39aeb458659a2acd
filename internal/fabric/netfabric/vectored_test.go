package netfabric

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rftp/internal/telemetry"
	"rftp/internal/verbs"
)

// TestControlBurstInlinedAndCounted drives a burst of control SENDs
// through one device and checks (a) every message round-trips intact
// through the writer's inline-arena path, (b) the device-level control
// counters see exactly the burst, and (c) the vectored-write batch
// counters show the burst drained in fewer writes than frames (the
// writer coalesced).
func TestControlBurstInlinedAndCounted(t *testing.T) {
	a, b := pair(t)
	a.Telemetry = telemetry.NewFabricMetrics(nil)
	la, lb := verbs.NewWallLoop("a"), verbs.NewWallLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	qa, qb, cqA, cqB := boundQPs(t, a, b, la, lb, 0)

	const burst = 32
	gotB := make(chan verbs.WC, burst)
	cqB.SetHandler(func(wc verbs.WC) { gotB <- wc })
	// The sender's own send completions are live, not flushes: without
	// a handler the first one to be dispatched panics loop "a".
	cqA.SetHandler(func(verbs.WC) {})

	buf := make([]byte, 1<<20)
	mr, _ := b.RegisterMR(&verbs.PD{}, buf, verbs.AccessLocalWrite)
	for i := 0; i < burst; i++ {
		if err := qb.PostRecv(&verbs.RecvWR{WRID: uint64(i), MR: mr, Offset: i * 2048, Len: 2048}); err != nil {
			t.Fatal(err)
		}
	}

	wantBytes := 0
	for i := 0; i < burst; i++ {
		// Sizes straddle typical control-message lengths, all under
		// ctrlInlineMax so every payload takes the inline path.
		msg := bytes.Repeat([]byte{byte(i)}, 40+16*i)
		wantBytes += len(msg)
		if err := qa.PostSend(&verbs.SendWR{WRID: uint64(i), Op: verbs.OpSend, Data: msg}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < burst; i++ {
		select {
		case wc := <-gotB:
			want := bytes.Repeat([]byte{byte(wc.WRID)}, 40+16*int(wc.WRID))
			if !bytes.Equal(wc.Data, want) {
				t.Fatalf("send %d: payload corrupted through inline path (%d bytes, want %d)",
					wc.WRID, len(wc.Data), len(want))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout after %d/%d receives", i, burst)
		}
	}

	m := a.Telemetry
	if m.CtrlMsgs() != burst {
		t.Fatalf("ctrl_msgs = %d, want %d", m.CtrlMsgs(), burst)
	}
	if m.CtrlBytes() != int64(wantBytes) {
		t.Fatalf("ctrl_bytes = %d, want %d", m.CtrlBytes(), wantBytes)
	}
	batches, frames := m.TxBatches(), m.TxFrames()
	if batches == 0 || frames < burst {
		t.Fatalf("tx_batches=%d tx_frames=%d, want >=1 batch carrying >=%d frames", batches, frames, burst)
	}
	if batches >= frames {
		t.Fatalf("tx_batches=%d not below tx_frames=%d: writer never coalesced", batches, frames)
	}
}

// TestLargeSendBypassesInline sends a control payload above the inline
// threshold and checks it still arrives intact via the reference
// (zero-copy) iovec path.
func TestLargeSendBypassesInline(t *testing.T) {
	a, b := pair(t)
	la, lb := verbs.NewWallLoop("a"), verbs.NewWallLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	qa, qb, cqA, cqB := boundQPs(t, a, b, la, lb, 0)

	got := make(chan verbs.WC, 1)
	cqB.SetHandler(func(wc verbs.WC) { got <- wc })
	cqA.SetHandler(func(verbs.WC) {}) // the send completion is live

	buf := make([]byte, 64<<10)
	mr, _ := b.RegisterMR(&verbs.PD{}, buf, verbs.AccessLocalWrite)
	if err := qb.PostRecv(&verbs.RecvWR{WRID: 1, MR: mr, Len: len(buf)}); err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, ctrlInlineMax+1)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	if err := qa.PostSend(&verbs.SendWR{WRID: 2, Op: verbs.OpSend, Data: msg}); err != nil {
		t.Fatal(err)
	}
	select {
	case wc := <-got:
		if !bytes.Equal(wc.Data, msg) {
			t.Fatal("oversize SEND corrupted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv timeout")
	}
}

// TestInterleavedInlineAndBulk alternates small control SENDs with bulk
// WRITEs in one queue flush so the writer's arena runs are interrupted
// by zero-copy payload entries, then verifies both streams.
func TestInterleavedInlineAndBulk(t *testing.T) {
	a, b := pair(t)
	la, lb := verbs.NewWallLoop("a"), verbs.NewWallLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	qa, qb, cqA, cqB := boundQPs(t, a, b, la, lb, 0)

	const rounds = 8
	recvd := make(chan verbs.WC, rounds)
	acks := make(chan verbs.WC, 2*rounds)
	cqB.SetHandler(func(wc verbs.WC) { recvd <- wc })
	cqA.SetHandler(func(wc verbs.WC) { acks <- wc })

	dst := make([]byte, rounds*4096)
	dstMR, _ := b.RegisterMR(&verbs.PD{}, dst, verbs.AccessLocalWrite|verbs.AccessRemoteWrite)
	ctl := make([]byte, rounds*256)
	ctlMR, _ := b.RegisterMR(&verbs.PD{}, ctl, verbs.AccessLocalWrite)
	for i := 0; i < rounds; i++ {
		if err := qb.PostRecv(&verbs.RecvWR{WRID: uint64(i), MR: ctlMR, Offset: i * 256, Len: 256}); err != nil {
			t.Fatal(err)
		}
	}

	bulk := make([][]byte, rounds)
	for i := 0; i < rounds; i++ {
		bulk[i] = bytes.Repeat([]byte{byte(0xA0 + i)}, 4096)
		wr := &verbs.SendWR{WRID: uint64(100 + i), Op: verbs.OpWrite, Data: bulk[i],
			Remote: dstMR.Remote(i * 4096)}
		if err := qa.PostSend(wr); err != nil {
			t.Fatal(err)
		}
		msg := []byte(fmt.Sprintf("ctl-%02d", i))
		if err := qa.PostSend(&verbs.SendWR{WRID: uint64(200 + i), Op: verbs.OpSend, Data: msg}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rounds; i++ {
		select {
		case wc := <-recvd:
			want := fmt.Sprintf("ctl-%02d", wc.WRID)
			if string(wc.Data) != want {
				t.Fatalf("control %d: got %q want %q", wc.WRID, wc.Data, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("control recv timeout")
		}
	}
	for i := 0; i < 2*rounds; i++ {
		select {
		case wc := <-acks:
			if wc.Status != verbs.StatusSuccess {
				t.Fatalf("completion %d failed: %+v", wc.WRID, wc)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("ack timeout")
		}
	}
	for i := 0; i < rounds; i++ {
		if !bytes.Equal(dst[i*4096:(i+1)*4096], bulk[i]) {
			t.Fatalf("bulk region %d corrupted", i)
		}
	}
}
