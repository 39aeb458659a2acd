package verbs

import (
	"testing"
	"time"
)

// syncLoop runs closures immediately (a trivial Loop for unit tests).
type syncLoop struct{ now time.Duration }

func (l *syncLoop) Now() time.Duration                 { return l.now }
func (l *syncLoop) Post(cost time.Duration, fn func()) { fn() }
func (l *syncLoop) After(d time.Duration, fn func())   { l.now += d; fn() }

func TestUpcallCQDispatch(t *testing.T) {
	loop := &syncLoop{}
	cq := NewUpcallCQ(loop)
	var got []WC
	cq.SetHandler(func(wc WC) { got = append(got, wc) })
	cq.Dispatch(0, WC{WRID: 1, Status: StatusSuccess})
	cq.Dispatch(0, WC{WRID: 2, Status: StatusFlushed})
	if len(got) != 2 || got[0].WRID != 1 || got[1].Status != StatusFlushed {
		t.Fatalf("dispatched: %+v", got)
	}
	if cq.Loop() != loop {
		t.Fatal("Loop() wrong")
	}
}

func TestUpcallCQNoHandlerPanics(t *testing.T) {
	cq := NewUpcallCQ(&syncLoop{})
	defer func() {
		if recover() == nil {
			t.Fatal("dispatch without handler did not panic")
		}
	}()
	cq.Dispatch(0, WC{})
}

func TestUpcallCQHandlerSwap(t *testing.T) {
	cq := NewUpcallCQ(&syncLoop{})
	first, second := 0, 0
	cq.SetHandler(func(WC) { first++ })
	cq.Dispatch(0, WC{})
	cq.SetHandler(func(WC) { second++ })
	cq.Dispatch(0, WC{})
	if first != 1 || second != 1 {
		t.Fatalf("handler swap: first=%d second=%d", first, second)
	}
}

func TestMRRemoteAddressing(t *testing.T) {
	as := NewAddressSpace()
	mr, _ := as.Register(&PD{}, make([]byte, 128), AccessRemoteWrite)
	r := mr.Remote(64)
	if r.Addr != mr.Addr+64 || r.RKey != mr.RKey {
		t.Fatalf("Remote(64) = %+v", r)
	}
}

func TestViewLocalBounds(t *testing.T) {
	as := NewAddressSpace()
	mr, _ := as.RegisterModel(&PD{}, 1024, 32, AccessRemoteWrite)
	if v := mr.ViewLocal(16, 64); len(v) != 16 {
		t.Fatalf("view across shadow boundary = %d bytes, want 16", len(v))
	}
	if v := mr.ViewLocal(32, 8); v != nil {
		t.Fatalf("view beyond shadow = %v", v)
	}
	if v := mr.ViewLocal(0, 32); len(v) != 32 {
		t.Fatalf("full shadow view = %d", len(v))
	}
}

func TestPlaceLocalBeyondShadowIsModeled(t *testing.T) {
	as := NewAddressSpace()
	mr, _ := as.RegisterModel(&PD{}, 1024, 16, AccessRemoteWrite)
	mr.PlaceLocal(100, []byte("deep")) // must not panic or corrupt
	mr.PlaceLocal(8, []byte("0123456789ABCDEF"))
	if string(mr.Buf[8:16]) != "01234567" {
		t.Fatalf("shadow prefix wrong: %q", mr.Buf[8:16])
	}
}

// A QP closed before its owner installed a handler flushes onto a
// handler-less CQ: those completions are counted and dropped, while a
// live one stays a wiring-bug panic (TestUpcallCQNoHandlerPanics).
func TestUpcallCQNoHandlerDropsFlushed(t *testing.T) {
	cq := NewUpcallCQ(&syncLoop{})
	cq.Dispatch(0, WC{WRID: 1, Status: StatusFlushed})
	cq.Dispatch(0, WC{WRID: 2, Status: StatusFlushed})
	if n := cq.orphanFlushes.Load(); n != 2 {
		t.Fatalf("orphanFlushes = %d, want 2", n)
	}
}
