package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rftp/internal/fabric/chanfabric"
	"rftp/internal/verbs"
	"rftp/internal/wire"
)

// newCtrlPair wires two one-channel endpoints over chanfabric, each on
// its own loop, with no Source or Sink: tests claim the control planes.
func newCtrlPair(t *testing.T) (epA, epB *Endpoint, la, lb *chanfabric.Loop) {
	t.Helper()
	fab := chanfabric.New()
	devA, devB := fab.NewDevice("a"), fab.NewDevice("b")
	fab.Connect(devA, devB, chanfabric.Shaping{})
	la, lb = chanfabric.NewLoop("a"), chanfabric.NewLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	epA, err := NewEndpoint(devA, la, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	epB, err = NewEndpoint(devB, lb, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(epA.Close)
	t.Cleanup(epB.Close)
	if err := epA.ConnectTo(epB, fab.ConnectQPs); err != nil {
		t.Fatal(err)
	}
	return epA, epB, la, lb
}

// TestCtrlPlaneOrderBackPressureAndTeardown drives the shared control
// plane directly, with recording owners instead of a Source and Sink:
// a burst four times the send queue's depth must reach the peer in
// FIFO order across ErrSendQueueFull back-pressure, onSent callbacks
// must fire in that same order, and once the endpoint is closed nothing
// — neither the flushed receives nor sends still on the wire — may pop
// a callback.
func TestCtrlPlaneOrderBackPressureAndTeardown(t *testing.T) {
	epA, epB, la, lb := newCtrlPair(t)
	var closing atomic.Bool // A closing under B is B's peer failing, as it should
	fail := func(err error) {
		if !closing.Load() {
			t.Errorf("control plane failed: %v", err)
		}
	}
	n := 4 * epA.ctrlDepth
	recvd := make(chan uint32, n)
	epB.ctrl.claim(func(c *wire.Control) { recvd <- c.Seq }, fail)
	epA.ctrl.claim(func(*wire.Control) {}, fail)

	// onLoopA runs fn on A's control loop and waits for it.
	onLoopA := func(fn func()) {
		done := make(chan struct{})
		la.Post(0, func() { fn(); close(done) })
		<-done
	}

	// With B's loop held, B cannot repost receives: one ring's worth of
	// messages is delivered, one more ring's worth parks on the wire
	// holding every send slot, and the rest must wait in sendQ.
	hold := make(chan struct{})
	lb.Post(0, func() { <-hold })
	var sentOrder []uint32 // loop A only
	backlog := 0
	onLoopA(func() {
		for i := 0; i < n; i++ {
			seq := uint32(i)
			var onSent func()
			if i%3 == 0 { // callbacks interleave with plain sends
				onSent = func() { sentOrder = append(sentOrder, seq) }
			}
			epA.ctrl.send(&wire.Control{Type: wire.MsgBlockComplete, Seq: seq}, onSent)
		}
		backlog = epA.ctrl.sendQ.Len()
	})
	close(hold)
	if backlog < n-2*epA.ctrlDepth {
		t.Fatalf("only %d of %d messages queued behind a %d-deep send queue: back-pressure not exercised",
			backlog, n, epA.ctrlDepth)
	}
	for i := 0; i < n; i++ {
		select {
		case seq := <-recvd:
			if seq != uint32(i) {
				t.Fatalf("message %d arrived in position %d: not FIFO", seq, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout after %d/%d messages", i, n)
		}
	}
	// Every message is delivered; the last send completions may still
	// be on their way to loop A.
	deadline := time.Now().Add(5 * time.Second)
	for fired := 0; fired < n/3; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d onSent callbacks fired", fired, n/3)
		}
		time.Sleep(time.Millisecond)
		onLoopA(func() { fired = len(sentOrder) })
	}
	onLoopA(func() {
		for i, seq := range sentOrder {
			if seq != uint32(3*i) {
				t.Errorf("onSent #%d fired for message %d, want %d", i, seq, 3*i)
			}
		}
		if q, p := epA.ctrl.sendQ.Len(), epA.ctrl.posted.Len(); q != 0 || p != 0 {
			t.Errorf("drained plane holds sendQ=%d posted=%d", q, p)
		}
	})

	// Teardown with sends on the wire and more queued: Close flushes
	// the receive ring onto the CQ, and whatever becomes of the sends,
	// their completions arrive at a closed endpoint.
	lateCallbacks, posted := 0, 0
	onLoopA(func() {
		for i := 0; i < 2*epA.ctrlDepth; i++ {
			epA.ctrl.send(&wire.Control{Type: wire.MsgBlockComplete, Seq: uint32(n + i)},
				func() { lateCallbacks++ })
		}
		posted = epA.ctrl.posted.Len()
		closing.Store(true)
		epA.Close()
	})
	time.Sleep(20 * time.Millisecond)
	onLoopA(func() {
		if lateCallbacks != 0 {
			t.Errorf("%d onSent callbacks fired after Close", lateCallbacks)
		}
		if got := epA.ctrl.posted.Len(); got != posted {
			t.Errorf("posted ring went %d -> %d after Close: a teardown completion was processed", posted, got)
		}
	})
}

// recvFailQP is a control QP whose receive queue dies: PostRecv fails
// with ErrQPError from the failFrom-th call on, as it does once the
// peer's close has errored the queue pair.
type recvFailQP struct {
	verbs.QP
	calls, failFrom int
}

func (q *recvFailQP) PostRecv(wr *verbs.RecvWR) error {
	q.calls++
	if q.calls >= q.failFrom {
		return verbs.ErrQPError
	}
	return q.QP.PostRecv(wr)
}

// TestCtrlPlaneHandlesBeforeRepost: a message already received must
// reach its owner even when the queue pair errors before the buffer
// can be reposted — the peer closing right after its last message
// (DATASET_COMPLETE_ACK) is exactly that. The repost failure is still
// reported, after the message.
func TestCtrlPlaneHandlesBeforeRepost(t *testing.T) {
	epA, epB, la, _ := newCtrlPair(t)
	// The ring is pre-posted, so the first PostRecv from here on is the
	// repost of the first message's buffer.
	epB.Ctrl = &recvFailQP{QP: epB.Ctrl, failFrom: 1}
	events := make(chan string, 2)
	epB.ctrl.claim(
		func(c *wire.Control) { events <- fmt.Sprintf("handle %d", c.Seq) },
		func(err error) {
			if !errors.Is(err, verbs.ErrQPError) {
				t.Errorf("fail(%v), want the repost's ErrQPError", err)
			}
			events <- "fail"
		})
	epA.ctrl.claim(func(*wire.Control) {}, func(err error) { t.Errorf("sender failed: %v", err) })
	la.Post(0, func() { epA.ctrl.send(&wire.Control{Type: wire.MsgDatasetCompleteAck, Seq: 7}, nil) })
	for _, want := range []string{"handle 7", "fail"} {
		select {
		case got := <-events:
			if got != want {
				t.Fatalf("control plane did %q, want %q first: the message in hand was lost to the repost failure", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout waiting for %q", want)
		}
	}
}
