package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rftp/internal/fabric/chanfabric"
	"rftp/internal/verbs"
	"rftp/internal/wire"
)

// chanPipe wires a Source and Sink over the in-process channel fabric
// (real goroutines, real bytes).
type chanPipe struct {
	srcLoop *verbs.WallLoop
	dstLoop *verbs.WallLoop
	source  *Source
	sink    *Sink
}

func newChanPipe(t *testing.T, shaping chanfabric.Shaping, cfg Config) *chanPipe {
	t.Helper()
	fab := chanfabric.New()
	srcDev := fab.NewDevice("cf0")
	dstDev := fab.NewDevice("cf1")
	fab.Connect(srcDev, dstDev, shaping)
	p := newChanPipeOn(t, fab, srcDev, dstDev, cfg, nil, nil)
	t.Cleanup(func() {
		p.srcLoop.Post(0, p.source.Close)
		p.dstLoop.Post(0, p.sink.Close)
		time.Sleep(10 * time.Millisecond)
	})
	return p
}

// newChanPipeOn wires a Source and Sink over existing devices of the
// channel fabric, optionally drawing block registrations from shared
// pin-down caches. fab/srcDev/dstDev may be reused across calls to
// model sequential connections on one fabric; the caller tears each
// pipe down with closePipe.
func newChanPipeOn(t *testing.T, fab *chanfabric.Fabric, srcDev, dstDev *chanfabric.Device,
	cfg Config, srcCache, dstCache *verbs.MRCache) *chanPipe {
	t.Helper()
	p := &chanPipe{
		srcLoop: verbs.NewWallLoop("src"),
		dstLoop: verbs.NewWallLoop("dst"),
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
	srcEP.MRCache = srcCache
	dstEP.MRCache = dstCache
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
	return p
}

// closePipe tears a pipe down on its own loops (releasing cached pools)
// and waits for both closes to land.
func closePipe(p *chanPipe) {
	done := make(chan struct{}, 2)
	p.srcLoop.Post(0, func() { p.source.Close(); done <- struct{}{} })
	p.dstLoop.Post(0, func() { p.sink.Close(); done <- struct{}{} })
	<-done
	<-done
}

// transferBytes moves data through the pipe and returns what the sink
// stored.
func (p *chanPipe) transferBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	return p.transferAdvertising(t, data, int64(len(data)))
}

// transferAdvertising is transferBytes with the dataset size the
// SESSION_REQ advertises set apart from the data's true length.
func (p *chanPipe) transferAdvertising(t *testing.T, data []byte, total int64) []byte {
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
			p.source.Transfer(ReaderSource{R: bytes.NewReader(data)}, total,
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

// TestShardedTransferSequentialSessions runs two sessions back to back
// on one connection to cover session turnover.
func TestShardedTransferSequentialSessions(t *testing.T) {
	fab := chanfabric.New()
	srcDev := fab.NewDevice("cf0")
	dstDev := fab.NewDevice("cf1")
	fab.Connect(srcDev, dstDev, chanfabric.Shaping{})
	cfg := DefaultConfig()
	cfg.BlockSize = 16 << 10
	cfg.Channels = 2
	cfg.IODepth = 8
	p := newChanPipeOn(t, fab, srcDev, dstDev, cfg, nil, nil)
	defer closePipe(p)
	data := randBytes(1<<20+11, 200)
	got := p.transferBytes(t, data)
	if !bytes.Equal(got, data) {
		t.Fatal("session 0 corrupted")
	}
	// Second session on the already-negotiated connection.
	data2 := randBytes(1<<20+7919, 201)
	var mu sync.Mutex
	var out bytes.Buffer
	done := make(chan error, 2)
	p.sink.NewWriter = func(SessionInfo) BlockSink { return lockedWriterSink{w: &out, mu: &mu} }
	p.sink.OnSessionDone = func(info SessionInfo, r TransferResult) { done <- r.Err }
	p.srcLoop.Post(0, func() {
		p.source.Transfer(ReaderSource{R: bytes.NewReader(data2)}, int64(len(data2)),
			func(r TransferResult) { done <- r.Err })
	})
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("session 1 error: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("session 1 timed out")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(out.Bytes(), data2) {
		t.Fatal("session 1 corrupted")
	}
}

// TestMRCachePipeReuse runs two sequential connections on one fabric
// whose endpoints share pin-down caches: the second connection's pools
// must be built entirely from the first connection's released
// registrations (all hits), and the payload must still arrive intact —
// real bytes through reissued regions.
func TestMRCachePipeReuse(t *testing.T) {
	fab := chanfabric.New()
	srcDev := fab.NewDevice("cf0")
	dstDev := fab.NewDevice("cf1")
	fab.Connect(srcDev, dstDev, chanfabric.Shaping{})

	cfg := DefaultConfig()
	cfg.BlockSize = 32 << 10
	cfg.IODepth = 8
	cfg.SinkBlocks = 16

	srcCache := verbs.NewMRCache(srcDev, 64)
	dstCache := verbs.NewMRCache(dstDev, 64)
	for conn := 0; conn < 2; conn++ {
		p := newChanPipeOn(t, fab, srcDev, dstDev, cfg, srcCache, dstCache)
		data := randBytes(2<<20+997, int64(300+conn))
		got := p.transferBytes(t, data)
		if !bytes.Equal(got, data) {
			t.Fatalf("conn %d corrupted", conn)
		}
		// Tear down now (not at test cleanup) so the pools release into
		// the caches before the next connection builds its own.
		closePipe(p)
	}
	sh, sm, _ := srcCache.Stats()
	dh, dm, _ := dstCache.Stats()
	// Source pool: IODepth blocks; sink pool: SinkBlocks blocks. The
	// second connection must hit on all of them.
	if sh != int64(cfg.IODepth) || sm != int64(cfg.IODepth) {
		t.Fatalf("source cache hits=%d misses=%d, want %d/%d", sh, sm, cfg.IODepth, cfg.IODepth)
	}
	if dh != int64(cfg.SinkBlocks) || dm != int64(cfg.SinkBlocks) {
		t.Fatalf("sink cache hits=%d misses=%d, want %d/%d", dh, dm, cfg.SinkBlocks, cfg.SinkBlocks)
	}
}

// stuckSource is a BlockSource whose loads never complete.
type stuckSource struct{}

func (stuckSource) Load([]byte, int, func(int, bool, error)) {}

// TestSinkCloseEndsLiveSessions closes the sink under a session that is
// admitted but still receiving: OnSessionDone must fire exactly once,
// with ErrClosed, so the owner can settle the session's resources.
func TestSinkCloseEndsLiveSessions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 16 << 10
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)
	opened := make(chan struct{}, 1)
	done := make(chan error, 4)
	p.sink.OnSessionOpen = func(SessionInfo) { opened <- struct{}{} }
	p.sink.OnSessionDone = func(_ SessionInfo, r TransferResult) { done <- r.Err }
	p.srcLoop.Post(0, func() {
		p.source.Start(func(err error) {
			if err != nil {
				t.Errorf("negotiation: %v", err)
				return
			}
			p.source.Transfer(stuckSource{}, 1<<20, func(TransferResult) {})
		})
	})
	select {
	case <-opened:
	case <-time.After(5 * time.Second):
		t.Fatal("session never admitted")
	}
	p.dstLoop.Post(0, p.sink.Close)
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("OnSessionDone err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnSessionDone did not fire after Sink.Close")
	}
	// A second Close, and whatever the torn-down QPs still complete,
	// must not end the session again.
	p.dstLoop.Post(0, p.sink.Close)
	select {
	case err := <-done:
		t.Fatalf("OnSessionDone fired twice (second err %v)", err)
	case <-time.After(100 * time.Millisecond):
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
