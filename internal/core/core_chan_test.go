package core

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rftp/internal/fabric/chanfabric"
	"rftp/internal/wire"
)

// chanPipe wires a Source and Sink over the in-process channel fabric
// (real goroutines, real bytes).
type chanPipe struct {
	srcLoop *chanfabric.Loop
	dstLoop *chanfabric.Loop
	source  *Source
	sink    *Sink
}

func newChanPipe(t *testing.T, shaping chanfabric.Shaping, cfg Config) *chanPipe {
	t.Helper()
	fab := chanfabric.New()
	srcDev := fab.NewDevice("cf0")
	dstDev := fab.NewDevice("cf1")
	fab.Connect(srcDev, dstDev, shaping)
	p := &chanPipe{
		srcLoop: chanfabric.NewLoop("src"),
		dstLoop: chanfabric.NewLoop("dst"),
	}
	t.Cleanup(func() { p.srcLoop.Stop(); p.dstLoop.Stop() })
	ncfg, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	srcEP, err := NewEndpoint(srcDev, p.srcLoop, ncfg.Channels, ncfg.IODepth)
	if err != nil {
		t.Fatal(err)
	}
	dstEP, err := NewEndpoint(dstDev, p.dstLoop, ncfg.Channels, ncfg.IODepth)
	if err != nil {
		t.Fatal(err)
	}
	if err := srcEP.ConnectTo(dstEP, fab.ConnectQPs); err != nil {
		t.Fatal(err)
	}
	p.sink, err = NewSink(dstEP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.source, err = NewSource(srcEP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.srcLoop.Post(0, p.source.Close)
		p.dstLoop.Post(0, p.sink.Close)
		time.Sleep(10 * time.Millisecond)
	})
	return p
}

// transferBytes moves data through the pipe and returns what the sink
// stored.
func (p *chanPipe) transferBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var mu sync.Mutex
	var out bytes.Buffer
	done := make(chan error, 2)
	p.sink.NewWriter = func(info SessionInfo) BlockSink {
		return lockedWriterSink{w: &out, mu: &mu}
	}
	p.sink.OnSessionDone = func(info SessionInfo, r TransferResult) { done <- r.Err }
	p.srcLoop.Post(0, func() {
		p.source.Start(func(err error) {
			if err != nil {
				done <- err
				done <- err
				return
			}
			p.source.Transfer(ReaderSource{R: bytes.NewReader(data)}, int64(len(data)),
				func(r TransferResult) { done <- r.Err })
		})
	})
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("transfer error: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("transfer timed out")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return out.Bytes()
}

type lockedWriterSink struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (s lockedWriterSink) Store(hdr wire.BlockHeader, payload []byte, modelLen int, done func(error)) {
	s.mu.Lock()
	_, err := s.w.Write(payload)
	s.mu.Unlock()
	done(err)
}

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestChanRealTransferIntegrity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 64 << 10
	cfg.IODepth = 8
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)
	data := randBytes(3<<20+12345, 1) // not block aligned
	got := p.transferBytes(t, data)
	if sha256.Sum256(got) != sha256.Sum256(data) {
		t.Fatalf("data corrupted: sent %d bytes, got %d", len(data), len(got))
	}
}

func TestChanMultiChannelReassembly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 16 << 10
	cfg.Channels = 4
	cfg.IODepth = 16
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)
	data := randBytes(2<<20+999, 2)
	got := p.transferBytes(t, data)
	if !bytes.Equal(got, data) {
		t.Fatalf("multi-channel stream corrupted: %d vs %d bytes", len(got), len(data))
	}
}

func TestChanShapedWANProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("shaped transfer is slow")
	}
	// 5ms one-way latency: exercises the credit ramp in real time.
	cfg := DefaultConfig()
	cfg.BlockSize = 64 << 10
	cfg.IODepth = 32
	cfg.SinkBlocks = 64
	p := newChanPipe(t, chanfabric.Shaping{Latency: 5 * time.Millisecond}, cfg)
	data := randBytes(1<<20, 3)
	got := p.transferBytes(t, data)
	if !bytes.Equal(got, data) {
		t.Fatal("shaped transfer corrupted")
	}
}

func TestChanTinyBlocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 256 // 224-byte payloads
	cfg.IODepth = 4
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)
	data := randBytes(10_000, 4)
	got := p.transferBytes(t, data)
	if !bytes.Equal(got, data) {
		t.Fatal("tiny-block transfer corrupted")
	}
}

func TestChanEmptyTransfer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 4 << 10
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)
	got := p.transferBytes(t, nil)
	if len(got) != 0 {
		t.Fatalf("empty transfer produced %d bytes", len(got))
	}
}

func TestChanConcurrentSessionsIntegrity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 32 << 10
	cfg.IODepth = 16
	cfg.SinkBlocks = 64
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)

	inputs := map[int][]byte{}
	for i := 0; i < 3; i++ {
		inputs[i] = randBytes(512<<10+i*7919, int64(100+i))
	}
	var mu sync.Mutex
	outputs := map[uint32]*bytes.Buffer{}
	sessErr := map[uint32]error{}
	done := make(chan struct{}, 8)
	p.sink.NewWriter = func(info SessionInfo) BlockSink {
		mu.Lock()
		buf := &bytes.Buffer{}
		outputs[info.ID] = buf
		mu.Unlock()
		return lockedWriterSink{w: buf, mu: &mu}
	}
	p.sink.OnSessionDone = func(info SessionInfo, r TransferResult) {
		mu.Lock()
		sessErr[info.ID] = r.Err
		mu.Unlock()
		done <- struct{}{}
	}
	p.srcLoop.Post(0, func() {
		p.source.Start(func(err error) {
			if err != nil {
				t.Errorf("nego: %v", err)
				return
			}
			for i := 0; i < 3; i++ {
				data := inputs[i]
				p.source.Transfer(ReaderSource{R: bytes.NewReader(data)}, int64(len(data)),
					func(r TransferResult) {
						if r.Err != nil {
							t.Errorf("session %d: %v", r.Session, r.Err)
						}
						done <- struct{}{}
					})
			}
		})
	})
	for i := 0; i < 6; i++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("concurrent sessions timed out")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(outputs) != 3 {
		t.Fatalf("sink saw %d sessions", len(outputs))
	}
	// Session ids are assigned in request order (control QP is ordered),
	// so session i+1 carries inputs[i].
	matched := 0
	for id, buf := range outputs {
		if sessErr[id] != nil {
			t.Fatalf("session %d err: %v", id, sessErr[id])
		}
		for _, in := range inputs {
			if bytes.Equal(buf.Bytes(), in) {
				matched++
				break
			}
		}
	}
	if matched != 3 {
		t.Fatalf("only %d/3 session payloads matched inputs", matched)
	}
}

func TestChanSourceStatsAccumulate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 64 << 10
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)
	data := randBytes(1<<20, 9)
	p.transferBytes(t, data)
	stCh := make(chan Stats, 1)
	p.srcLoop.Post(0, func() { stCh <- p.source.Stats() })
	st := <-stCh
	if st.Bytes != int64(len(data)) {
		t.Fatalf("stats bytes = %d, want %d", st.Bytes, len(data))
	}
	if st.Blocks == 0 || st.CtrlMsgs == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.Elapsed() <= 0 {
		t.Fatalf("elapsed = %v", st.Elapsed())
	}
}
