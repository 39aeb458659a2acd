package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"rftp/internal/fabric/chanfabric"
	"rftp/internal/verbs"
	"rftp/internal/wire"
)

// atSource is a real-bytes offset-addressed source for pipeline tests:
// LoadAt is stateless per the BlockSourceAt contract, so completions
// may be held, reordered, or overlapped freely.
type atSource struct {
	data []byte
	cur  int64 // serial Load cursor
}

func (s *atSource) Load(p []byte, capacity int, done func(int, bool, error)) {
	off := s.cur
	s.cur += int64(capacity)
	s.LoadAt(p, capacity, uint64(off), done)
}

func (s *atSource) LoadAt(p []byte, capacity int, off uint64, done func(int, bool, error)) {
	rem := int64(len(s.data)) - int64(off)
	if rem <= 0 {
		done(0, true, nil)
		return
	}
	n := int64(capacity)
	if n > rem {
		n = rem
	}
	copy(p[:n], s.data[off:int64(off)+n])
	done(int(n), int64(off)+n >= int64(len(s.data)), nil)
}

// oooSource holds load completions and releases them in reverse arrival
// order once flushAt have accumulated (or an EOF load arrives), forcing
// maximal out-of-order completion under the pipelined load path.
type oooSource struct {
	inner   *atSource
	flushAt int

	mu      sync.Mutex
	pending []func()
	held    int // max completions held at once (proves pipelining)
}

func (s *oooSource) Load(p []byte, c int, done func(int, bool, error)) { s.inner.Load(p, c, done) }

func (s *oooSource) LoadAt(p []byte, c int, off uint64, done func(int, bool, error)) {
	s.inner.LoadAt(p, c, off, func(n int, eof bool, err error) {
		s.mu.Lock()
		s.pending = append(s.pending, func() { done(n, eof, err) })
		if len(s.pending) > s.held {
			s.held = len(s.pending)
		}
		var flush []func()
		if len(s.pending) >= s.flushAt || eof {
			flush = s.pending
			s.pending = nil
		}
		s.mu.Unlock()
		for i := len(flush) - 1; i >= 0; i-- {
			flush[i]()
		}
	})
}

// offsetBufSink is an OffsetSink recording concurrency: stores place
// payload by header offset and complete after a delay on their own
// goroutine, so several run at once up to the sink's StoreDepth.
type offsetBufSink struct {
	mu       sync.Mutex
	buf      []byte
	inflight int
	maxInfl  int
	delay    time.Duration
}

func (s *offsetBufSink) OffsetStores() bool { return true }

func (s *offsetBufSink) Store(hdr wire.BlockHeader, payload []byte, modelLen int, done func(error)) {
	s.mu.Lock()
	s.inflight++
	if s.inflight > s.maxInfl {
		s.maxInfl = s.inflight
	}
	copy(s.buf[hdr.Offset:], payload)
	s.mu.Unlock()
	go func() {
		time.Sleep(s.delay)
		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
		done(nil)
	}()
}

// runPipeTransfer drives one session of src through p into sink and
// waits for both ends to finish.
func runPipeTransfer(t *testing.T, p *chanPipe, src BlockSource, total int64, sink BlockSink) {
	t.Helper()
	done := make(chan error, 2)
	p.sink.NewWriter = func(info SessionInfo) BlockSink { return sink }
	p.sink.OnSessionDone = func(info SessionInfo, r TransferResult) { done <- r.Err }
	p.srcLoop.Post(0, func() {
		p.source.Start(func(err error) {
			if err != nil {
				done <- err
				done <- err
				return
			}
			p.source.Transfer(src, total, func(r TransferResult) { done <- r.Err })
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
}

// TestPipelinedLoadsOutOfOrderCompletion: loads complete in reverse
// batches, yet seq/offset assignment at issue time keeps the delivered
// stream intact, and the source genuinely pipelines (LoadDepth loads
// held at once).
func TestPipelinedLoadsOutOfOrderCompletion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 32 << 10
	cfg.IODepth = 8
	cfg.LoadDepth = 8
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)
	data := randBytes(2<<20+4321, 11)
	src := &oooSource{inner: &atSource{data: data}, flushAt: 4}

	var mu sync.Mutex
	var out bytes.Buffer
	runPipeTransfer(t, p, src, int64(len(data)), lockedWriterSink{w: &out, mu: &mu})

	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("out-of-order loads corrupted stream: %d vs %d bytes", out.Len(), len(data))
	}
	if src.held < 4 {
		t.Fatalf("source held %d concurrent loads, want >= 4 (pipelining not engaged)", src.held)
	}
}

// TestOffsetSinkFastPath: an OffsetSink receives stores as blocks
// arrive (no reassembly wait), concurrently but never above StoreDepth,
// and the offset-placed result is byte-identical.
func TestOffsetSinkFastPath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 32 << 10
	cfg.IODepth = 8
	cfg.LoadDepth = 8
	cfg.StoreDepth = 4
	cfg.SinkBlocks = 32
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)
	data := randBytes(3<<20+777, 12)
	sink := &offsetBufSink{buf: make([]byte, len(data)), delay: time.Millisecond}

	runPipeTransfer(t, p, &atSource{data: data}, int64(len(data)), sink)

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if !bytes.Equal(sink.buf, data) {
		t.Fatal("offset fast path corrupted data")
	}
	if sink.maxInfl > cfg.StoreDepth {
		t.Fatalf("observed %d concurrent stores, StoreDepth = %d", sink.maxInfl, cfg.StoreDepth)
	}
	if sink.maxInfl < 2 {
		t.Fatalf("observed %d concurrent stores, want >= 2 (fast path not engaged)", sink.maxInfl)
	}
}

// TestLoadDepthOneEquivalence: an offset-addressed source at
// LoadDepth=1 behaves exactly like the serial path — same bytes, same
// block count.
func TestLoadDepthOneEquivalence(t *testing.T) {
	data := randBytes(1<<20+99, 13)
	blocks := func(depth int, src BlockSource) int64 {
		cfg := DefaultConfig()
		cfg.BlockSize = 64 << 10
		cfg.IODepth = 8
		cfg.LoadDepth = depth
		p := newChanPipe(t, chanfabric.Shaping{}, cfg)
		var mu sync.Mutex
		var out bytes.Buffer
		runPipeTransfer(t, p, src, int64(len(data)), lockedWriterSink{w: &out, mu: &mu})
		mu.Lock()
		defer mu.Unlock()
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("depth-%d transfer corrupted", depth)
		}
		stCh := make(chan Stats, 1)
		p.srcLoop.Post(0, func() { stCh <- p.source.Stats() })
		return (<-stCh).Blocks
	}
	serial := blocks(1, ReaderSource{R: bytes.NewReader(data)})
	depthOne := blocks(1, &atSource{data: data})
	if serial != depthOne {
		t.Fatalf("LoadDepth=1 sent %d blocks, serial source sent %d", depthOne, serial)
	}
}

// TestOffsetSourceEmptyDataset: the seq-0 exception — over-issue
// discard must not swallow the empty last block an empty dataset sends.
func TestOffsetSourceEmptyDataset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 32 << 10
	cfg.LoadDepth = 8
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)
	var mu sync.Mutex
	var out bytes.Buffer
	runPipeTransfer(t, p, &atSource{data: nil}, 0, lockedWriterSink{w: &out, mu: &mu})
	mu.Lock()
	defer mu.Unlock()
	if out.Len() != 0 {
		t.Fatalf("empty dataset produced %d bytes", out.Len())
	}
}

// flakyQP rejects a bounded number of write posts with
// ErrSendQueueFull, but only while at least one accepted write is still
// outstanding — the real-world invariant behind that error (a full
// queue implies completions are coming). Regression test for the old
// recovery hack that corrupted the per-channel inflight count.
type flakyQP struct {
	verbs.QP
	rejectBudget int
	outstanding  int
	rejected     int
}

func (q *flakyQP) PostSend(wr *verbs.SendWR) error {
	if wr.Op == verbs.OpWrite || wr.Op == verbs.OpWriteImm {
		if q.rejected < q.rejectBudget && q.outstanding > 0 {
			q.rejected++
			return verbs.ErrSendQueueFull
		}
		if err := q.QP.PostSend(wr); err != nil {
			return err
		}
		q.outstanding++
		return nil
	}
	// Not a repost: the branch above returns before reaching here, so
	// exactly one PostSend runs per call.
	//lint:allow bufownership mutually exclusive branches, only one post executes per call
	return q.QP.PostSend(wr)
}

func TestSendQueueFullRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 32 << 10
	cfg.IODepth = 8
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)

	// Interpose on the data QP and its completion stream. Both PostSend
	// and the CQ handler run on the source loop, so no locking.
	q := &flakyQP{QP: p.source.ep.Data[0], rejectBudget: 3}
	p.source.ep.Data[0] = q
	p.source.ep.DataCQ.SetHandler(func(wc verbs.WC) {
		if wc.Op == verbs.OpWrite || wc.Op == verbs.OpWriteImm {
			q.outstanding--
		}
		p.source.onDataWC(wc)
	})

	data := randBytes(2<<20, 14)
	var mu sync.Mutex
	var out bytes.Buffer
	runPipeTransfer(t, p, ReaderSource{R: bytes.NewReader(data)}, int64(len(data)),
		lockedWriterSink{w: &out, mu: &mu})

	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("transfer corrupted after send-queue-full recovery")
	}
	if q.rejected != 3 {
		t.Fatalf("QP rejected %d posts, want 3 (recovery path not exercised)", q.rejected)
	}
	satCh := make(chan bool, 1)
	p.srcLoop.Post(0, func() { satCh <- p.source.chSaturated[0] })
	if <-satCh {
		t.Fatal("channel still marked saturated after recovery")
	}
	inflCh := make(chan int, 1)
	p.srcLoop.Post(0, func() { inflCh <- p.source.chInflight[0] })
	if n := <-inflCh; n != 0 {
		t.Fatalf("chInflight[0] = %d after drain, want 0 (count corrupted)", n)
	}
}
