package core

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"rftp/internal/fabric/chanfabric"
	"rftp/internal/hostmodel"
	"rftp/internal/sim"
	"rftp/internal/wire"
)

func TestReaderSourceFullBlocks(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 100)
	src := ReaderSource{R: bytes.NewReader(data)}
	buf := make([]byte, 40)
	var got []int
	var eofs []bool
	for i := 0; i < 3; i++ {
		done := false
		src.Load(buf, 40, func(n int, eof bool, err error) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, n)
			eofs = append(eofs, eof)
			done = true
		})
		if !done {
			t.Fatal("ReaderSource.Load is synchronous; done not called")
		}
	}
	if got[0] != 40 || got[1] != 40 || got[2] != 20 {
		t.Fatalf("loads = %v", got)
	}
	if eofs[0] || eofs[1] || !eofs[2] {
		t.Fatalf("eofs = %v", eofs)
	}
}

func TestReaderSourceExactEOF(t *testing.T) {
	src := ReaderSource{R: bytes.NewReader(make([]byte, 40))}
	buf := make([]byte, 40)
	src.Load(buf, 40, func(n int, eof bool, err error) {
		if n != 40 || eof || err != nil {
			t.Fatalf("first load: n=%d eof=%v err=%v", n, eof, err)
		}
	})
	// The next read returns 0, EOF.
	src.Load(buf, 40, func(n int, eof bool, err error) {
		if n != 0 || !eof || err != nil {
			t.Fatalf("final load: n=%d eof=%v err=%v", n, eof, err)
		}
	})
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

func TestReaderSourcePropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	src := ReaderSource{R: errReader{err: boom}}
	src.Load(make([]byte, 8), 8, func(n int, eof bool, err error) {
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestWriterSinkAndDiscard(t *testing.T) {
	var buf bytes.Buffer
	ws := WriterSink{W: &buf}
	ws.Store(wire.BlockHeader{}, []byte("payload"), 7, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	if buf.String() != "payload" {
		t.Fatalf("wrote %q", buf.String())
	}
	DiscardSink{}.Store(wire.BlockHeader{}, []byte("x"), 1, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrShortWrite }

func TestWriterSinkPropagatesErrors(t *testing.T) {
	WriterSink{W: failWriter{}}.Store(wire.BlockHeader{}, []byte("x"), 1, func(err error) {
		if err != io.ErrShortWrite {
			t.Fatalf("err = %v", err)
		}
	})
}

// The modeled source and sink live in hostmodel, which cannot import
// core; that they satisfy core's storage contracts is checked here.
var (
	_ BlockSourceAt = (*hostmodel.ModelSource)(nil)
	_ OffsetSink    = (*hostmodel.ModelSink)(nil)
)

func TestModelSourceProducesExactTotal(t *testing.T) {
	s := sim.New(1)
	h := hostmodel.NewHost(s, "h", 4, hostmodel.DefaultParams())
	loader := h.NewThread("loader")
	src := &hostmodel.ModelSource{Total: 250, Loader: loader, NsPerByte: 1}
	var produced int
	var lastEOF bool
	for i := 0; i < 3; i++ {
		src.Load(nil, 100, func(n int, eof bool, err error) {
			produced += n
			lastEOF = eof
		})
	}
	s.RunAll()
	if produced != 250 {
		t.Fatalf("produced %d, want 250", produced)
	}
	if !lastEOF {
		t.Fatal("final load not marked EOF")
	}
	// The loader thread was charged 250ns.
	if loader.Busy() != 250*time.Nanosecond {
		t.Fatalf("loader busy = %v", loader.Busy())
	}
}

func TestModelSinkChargesStorer(t *testing.T) {
	s := sim.New(1)
	h := hostmodel.NewHost(s, "h", 4, hostmodel.DefaultParams())
	storer := h.NewThread("storer")
	sink := &hostmodel.ModelSink{Storer: storer, NsPerByte: 2, PerBlock: 10 * time.Nanosecond}
	done := 0
	sink.Store(wire.BlockHeader{}, nil, 100, func(err error) { done++ })
	sink.Store(wire.BlockHeader{}, nil, 50, func(err error) { done++ })
	s.RunAll()
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	if sink.Stored() != 150 {
		t.Fatalf("stored = %d", sink.Stored())
	}
	want := 2*10*time.Nanosecond + 300*time.Nanosecond
	if storer.Busy() != want {
		t.Fatalf("storer busy = %v, want %v", storer.Busy(), want)
	}
}

func TestLoopSourceMarshalsCompletion(t *testing.T) {
	loop := chanfabric.NewLoop("io-test")
	defer loop.Stop()
	inner := ReaderSource{R: strings.NewReader("abcdef")}
	src := LoopSource{Inner: inner, Loop: loop}
	ch := make(chan int, 1)
	buf := make([]byte, 6)
	src.Load(buf, 6, func(n int, eof bool, err error) { ch <- n })
	select {
	case n := <-ch:
		if n != 6 || string(buf) != "abcdef" {
			t.Fatalf("n=%d buf=%q", n, buf)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LoopSource completion never arrived")
	}
}

func TestEndpointCtrlRingSized(t *testing.T) {
	fab := chanfabric.New()
	dev := fab.NewDevice("d")
	loop := chanfabric.NewLoop("ep-test")
	defer loop.Stop()
	ep, err := NewEndpoint(dev, loop, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ep.ctrlDepth != 216 { // 2*100+16
		t.Fatalf("ctrlDepth = %d", ep.ctrlDepth)
	}
	if len(ep.ctrlRecvMRs) != ep.ctrlDepth {
		t.Fatalf("recv ring = %d buffers", len(ep.ctrlRecvMRs))
	}
	if len(ep.Data) != 2 {
		t.Fatalf("data QPs = %d", len(ep.Data))
	}
	ep.Close()
	if err := ep.repostCtrlRecv(0); err != ErrClosed {
		t.Fatalf("repost after close: %v", err)
	}
	ep.Close() // idempotent
}

func TestEndpointMinimumCtrlDepth(t *testing.T) {
	fab := chanfabric.New()
	dev := fab.NewDevice("d")
	loop := chanfabric.NewLoop("ep-test2")
	defer loop.Stop()
	ep, err := NewEndpoint(dev, loop, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ep.ctrlDepth != 64 {
		t.Fatalf("ctrlDepth floor = %d, want 64", ep.ctrlDepth)
	}
}
