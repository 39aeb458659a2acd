package core

import (
	"errors"
	"testing"
	"time"

	"rftp/internal/hostmodel"
	"rftp/internal/trace"
	"rftp/internal/verbs"
	"rftp/internal/wire"
)

// These tests drive the sink's control handler directly with malformed
// or adversarial messages, checking that every protocol violation fails
// loudly instead of corrupting state.

// sinkRig builds a sink on a sim pipe and runs negotiation + session
// setup so the pool exists.
func sinkRig(t *testing.T) (*simPipe, *sinkSession) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BlockSize = 1 << 20
	p := newSimPipe(t, lanLink(), cfg)
	p.source.Start(func(err error) {
		if err != nil {
			t.Errorf("nego: %v", err)
			return
		}
		// Open a session but never send data: the sink state is live.
		src := &hostmodel.ModelSource{Total: 1 << 30, Loader: p.loader, NsPerByte: 0}
		p.source.Transfer(src, 1<<30, func(TransferResult) {})
	})
	// Run enough for negotiation + session establishment + some data.
	p.sched.Run(1e6) // 1ms virtual
	if p.sink.pool == nil || len(p.sink.sessions) != 1 {
		t.Fatalf("session not established (pool=%v sessions=%d)", p.sink.pool != nil, len(p.sink.sessions))
	}
	for _, sess := range p.sink.sessions {
		return p, sess
	}
	return p, nil
}

func sinkFailure(p *simPipe) *error {
	var got error
	p.sink.OnError = func(err error) { got = err }
	return &got
}

func TestSinkRejectsUnknownRegionCompletion(t *testing.T) {
	p, _ := sinkRig(t)
	errp := sinkFailure(p)
	p.sink.handleCtrl(&wire.Control{Type: wire.MsgBlockComplete, Session: 1, RKey: 0xDEAD})
	if !errors.Is(*errp, ErrProtocol) {
		t.Fatalf("err = %v", *errp)
	}
}

func TestSinkRejectsCompletionForFreeBlock(t *testing.T) {
	p, _ := sinkRig(t)
	errp := sinkFailure(p)
	// Find a block still in the free pool (never granted).
	var free *block
	for _, b := range p.sink.pool.blocks {
		if b.state == BlockFree {
			free = b
			break
		}
	}
	if free == nil {
		t.Skip("no free block in pool at this point")
	}
	p.sink.handleCtrl(&wire.Control{Type: wire.MsgBlockComplete, Session: 1, RKey: free.mr.RKey})
	if !errors.Is(*errp, ErrProtocol) {
		t.Fatalf("err = %v", *errp)
	}
}

func TestSinkRejectsMismatchedNotification(t *testing.T) {
	p, _ := sinkRig(t)
	errp := sinkFailure(p)
	// A granted (waiting) block whose header does not match the
	// notification's claims.
	var waiting *block
	for _, b := range p.sink.pool.blocks {
		if b.state == BlockWaiting {
			waiting = b
			break
		}
	}
	if waiting == nil {
		t.Skip("no waiting block")
	}
	hdr := wire.BlockHeader{Session: 1, Seq: 42, PayloadLen: 100}
	buf := make([]byte, wire.BlockHeaderSize)
	wire.EncodeBlockHeader(buf, hdr)
	waiting.mr.PlaceLocal(0, buf)
	// Notification claims a different length.
	p.sink.handleCtrl(&wire.Control{
		Type: wire.MsgBlockComplete, Session: 1, Seq: 42,
		RKey: waiting.mr.RKey, Length: 999,
	})
	if !errors.Is(*errp, ErrProtocol) {
		t.Fatalf("err = %v", *errp)
	}
}

func TestSinkRejectsUnknownSessionBlock(t *testing.T) {
	p, _ := sinkRig(t)
	errp := sinkFailure(p)
	var waiting *block
	for _, b := range p.sink.pool.blocks {
		if b.state == BlockWaiting {
			waiting = b
			break
		}
	}
	if waiting == nil {
		t.Skip("no waiting block")
	}
	hdr := wire.BlockHeader{Session: 777, Seq: 0, PayloadLen: 10}
	buf := make([]byte, wire.BlockHeaderSize)
	wire.EncodeBlockHeader(buf, hdr)
	waiting.mr.PlaceLocal(0, buf)
	p.sink.handleCtrl(&wire.Control{
		Type: wire.MsgBlockComplete, Session: 777, Seq: 0,
		RKey: waiting.mr.RKey, Length: 10,
	})
	if !errors.Is(*errp, ErrProtocol) {
		t.Fatalf("err = %v", *errp)
	}
}

func TestSinkAbortForUnknownSessionIsConnectionFatal(t *testing.T) {
	p, _ := sinkRig(t)
	errp := sinkFailure(p)
	p.sink.handleCtrl(&wire.Control{Type: wire.MsgAbort, Session: 0})
	if !errors.Is(*errp, ErrAborted) {
		t.Fatalf("err = %v", *errp)
	}
}

func TestSinkSessionAbortOnlyKillsSession(t *testing.T) {
	p, sess := sinkRig(t)
	var sessionErr error
	p.sink.OnSessionDone = func(info SessionInfo, r TransferResult) { sessionErr = r.Err }
	connErr := sinkFailure(p)
	p.sink.handleCtrl(&wire.Control{Type: wire.MsgAbort, Session: sess.info.ID})
	if !errors.Is(sessionErr, ErrAborted) {
		t.Fatalf("session err = %v", sessionErr)
	}
	if *connErr != nil {
		t.Fatalf("connection err = %v (session abort must not kill the connection)", *connErr)
	}
}

func TestSinkSessionReqBeforeNegotiationRejected(t *testing.T) {
	cfg := DefaultConfig()
	p := newSimPipe(t, lanLink(), cfg)
	// No negotiation: pool is nil. A session request must be rejected,
	// not crash.
	p.sink.handleCtrl(&wire.Control{Type: wire.MsgSessionReq, AssocData: 100})
	p.sched.RunAll()
	if len(p.sink.sessions) != 0 {
		t.Fatal("session accepted without negotiation")
	}
}

func TestSinkBlockCompleteBeforeNegotiationFails(t *testing.T) {
	cfg := DefaultConfig()
	p := newSimPipe(t, lanLink(), cfg)
	errp := sinkFailure(p)
	p.sink.handleCtrl(&wire.Control{Type: wire.MsgBlockComplete, RKey: 1})
	if !errors.Is(*errp, ErrProtocol) {
		t.Fatalf("err = %v", *errp)
	}
}

func TestSourceIgnoresStaleNegotiationReplies(t *testing.T) {
	cfg := DefaultConfig()
	p := newSimPipe(t, lanLink(), cfg)
	// Unsolicited responses before Start must be ignored, not crash.
	p.source.handleCtrl(&wire.Control{Type: wire.MsgBlockSizeResp, Flags: wire.FlagAccept})
	p.source.handleCtrl(&wire.Control{Type: wire.MsgChannelsResp, Flags: wire.FlagAccept})
	p.source.handleCtrl(&wire.Control{Type: wire.MsgSessionResp, Flags: wire.FlagAccept, Session: 5})
	p.source.handleCtrl(&wire.Control{Type: wire.MsgDatasetCompleteAck, Session: 5})
	if p.source.negoStep != 0 {
		t.Fatal("stale replies advanced negotiation")
	}
}

func TestSourceDoubleStartRejected(t *testing.T) {
	cfg := DefaultConfig()
	p := newSimPipe(t, lanLink(), cfg)
	p.source.Start(func(error) {})
	var second error
	p.source.Start(func(err error) { second = err })
	if !errors.Is(second, ErrBusy) {
		t.Fatalf("second Start: %v", second)
	}
	p.sched.RunAll()
}

func TestSourceTransferAfterCloseFails(t *testing.T) {
	cfg := DefaultConfig()
	p := newSimPipe(t, lanLink(), cfg)
	p.source.Close()
	var got error
	p.source.Transfer(&hostmodel.ModelSource{Total: 1, Loader: p.loader}, 1,
		func(r TransferResult) { got = r.Err })
	if !errors.Is(got, ErrClosed) {
		t.Fatalf("transfer after close: %v", got)
	}
}

func TestNegotiationTimeoutFires(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NegotiateTimeout = 1e6 // 1ms virtual
	p := newSimPipe(t, lanLink(), cfg)
	// Detach the sink's handler so negotiation never answers.
	p.sink.ep.CtrlCQ.SetHandler(func(verbs.WC) {})
	var negoErr error
	p.source.Start(func(err error) { negoErr = err })
	p.sched.RunAll()
	if negoErr == nil {
		t.Fatal("negotiation never timed out")
	}
}

// Regression: finishSession used to write b.state directly, bypassing
// setState — and DataReady -> Free was missing from validNext, so the
// abort path silently skipped FSM validation (routing it through
// setState would have panicked). Aborting a session that still holds
// data-ready blocks must recycle them to the pool through the FSM.
func TestSinkAbortRecyclesDataReadyBlocksThroughFSM(t *testing.T) {
	p, sess := sinkRig(t)
	var b *block
	for _, cand := range p.sink.pool.blocks {
		if cand.state == BlockWaiting {
			b = cand
			break
		}
	}
	if b == nil {
		t.Skip("no waiting block to park in reassembly")
	}
	b.setState(BlockDataReady)
	b.session, b.seq = sess.info.ID, sess.nextDeliver+3 // parked behind a hole
	sess.ready[b.seq] = b
	p.sink.handleCtrl(&wire.Control{Type: wire.MsgAbort, Session: sess.info.ID})
	if b.state != BlockFree {
		t.Fatalf("aborted session left block in %v, want free", b.state)
	}
	// The abort reclaims everything the session held — parked data-ready
	// blocks and outstanding granted regions alike — so with the only
	// session gone the whole pool is free again.
	if got, want := len(p.sink.pool.free), len(p.sink.pool.blocks); got != want {
		t.Fatalf("pool free = %d, want %d (aborted session's blocks not recycled)", got, want)
	}
}

// TestUnhandledControlTypesTraceNotSilent is the regression test for
// the msgexhaustive findings: response-direction types arriving at the
// sink (and request-direction types at the source) used to fall out of
// the dispatch switch with no trace at all — a wedged peer looked like
// a network hang. They must now emit a ctrl_unhandled error event and
// leave the endpoint healthy.
func TestUnhandledControlTypesTraceNotSilent(t *testing.T) {
	p, _ := sinkRig(t)
	sinkErr := sinkFailure(p)
	p.sink.Trace = trace.NewRing(64, func() time.Duration { return 0 })
	p.source.Trace = trace.NewRing(64, func() time.Duration { return 0 })
	var srcErr error
	p.source.OnError = func(err error) { srcErr = err }

	p.sink.handleCtrl(&wire.Control{Type: wire.MsgSessionResp, Session: 7})
	p.source.handleCtrl(&wire.Control{Type: wire.MsgSessionReq, Session: 7})

	if *sinkErr != nil || srcErr != nil {
		t.Fatalf("unhandled control types must not fail the endpoint (sink=%v source=%v)", *sinkErr, srcErr)
	}
	for name, ring := range map[string]*trace.Ring{"sink": p.sink.Trace, "source": p.source.Trace} {
		found := false
		for _, e := range ring.Events() {
			if e.Name == "ctrl_unhandled" && e.Cat == trace.CatError && e.Session == 7 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s dropped an unhandled control type without a ctrl_unhandled trace event", name)
		}
	}
}
