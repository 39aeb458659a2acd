package core

import (
	"bytes"
	"crypto/sha256"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rftp/internal/fabric/chanfabric"
)

func TestChanPullTransferIntegrity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 64 << 10
	cfg.IODepth = 8
	cfg.TransferMode = ModePull
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)
	data := randBytes(3<<20+12345, 21) // not block aligned
	got := p.transferBytes(t, data)
	if sha256.Sum256(got) != sha256.Sum256(data) {
		t.Fatalf("pull transfer corrupted: sent %d bytes, got %d", len(data), len(got))
	}
	stCh := make(chan Stats, 1)
	p.srcLoop.Post(0, func() { stCh <- p.source.Stats() })
	st := <-stCh
	if st.Adverts == 0 || st.ReadsDone == 0 {
		t.Fatalf("pull transfer did not use the pull path: %+v", st)
	}
	if st.Adverts != st.ReadsDone {
		t.Fatalf("advert ledger unsettled: %d advertised, %d read done", st.Adverts, st.ReadsDone)
	}
}

func TestChanPullMultiChannel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 16 << 10
	cfg.Channels = 4
	cfg.IODepth = 16
	cfg.TransferMode = ModePull
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)
	data := randBytes(2<<20+999, 22)
	got := p.transferBytes(t, data)
	if !bytes.Equal(got, data) {
		t.Fatalf("multi-channel pull stream corrupted: %d vs %d bytes", len(got), len(data))
	}
}

func TestChanPullTinyBlocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 256
	cfg.IODepth = 4
	cfg.TransferMode = ModePull
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)
	data := randBytes(10_000, 23)
	got := p.transferBytes(t, data)
	if !bytes.Equal(got, data) {
		t.Fatal("tiny-block pull transfer corrupted")
	}
}

func TestChanPullShapedWAN(t *testing.T) {
	if testing.Short() {
		t.Skip("shaped transfer is slow")
	}
	cfg := DefaultConfig()
	cfg.BlockSize = 64 << 10
	cfg.IODepth = 32
	cfg.SinkBlocks = 64
	cfg.TransferMode = ModePull
	p := newChanPipe(t, chanfabric.Shaping{Latency: 5 * time.Millisecond}, cfg)
	data := randBytes(1<<20, 24)
	got := p.transferBytes(t, data)
	if !bytes.Equal(got, data) {
		t.Fatal("shaped pull transfer corrupted")
	}
}

func TestChanPullConcurrentSessions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 32 << 10
	cfg.IODepth = 16
	cfg.SinkBlocks = 64
	cfg.TransferMode = ModePull
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)

	inputs := map[int][]byte{}
	for i := 0; i < 3; i++ {
		inputs[i] = randBytes(512<<10+i*7919, int64(200+i))
	}
	var mu sync.Mutex
	outputs := map[uint32]*bytes.Buffer{}
	done := make(chan struct{}, 8)
	p.sink.NewWriter = func(info SessionInfo) BlockSink {
		mu.Lock()
		buf := &bytes.Buffer{}
		outputs[info.ID] = buf
		mu.Unlock()
		return lockedWriterSink{w: buf, mu: &mu}
	}
	p.sink.OnSessionDone = func(info SessionInfo, r TransferResult) {
		if r.Err != nil {
			t.Errorf("sink session %d: %v", info.ID, r.Err)
		}
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
			t.Fatal("concurrent pull sessions timed out")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	matched := 0
	for _, buf := range outputs {
		for _, in := range inputs {
			if bytes.Equal(buf.Bytes(), in) {
				matched++
				break
			}
		}
	}
	if matched != 3 {
		t.Fatalf("only %d/3 pull session payloads matched inputs", matched)
	}
}

// TestChanPushOnlySinkRefusesPull pins the policy boundary: a sink
// configured push-only hard-rejects pull sessions at admission, so a
// pull-mode source cannot open one at all.
func TestChanPushOnlySinkRefusesPull(t *testing.T) {
	fab := chanfabric.New()
	srcDev := fab.NewDevice("cf0")
	dstDev := fab.NewDevice("cf1")
	fab.Connect(srcDev, dstDev, chanfabric.Shaping{})
	srcLoop := chanfabric.NewLoop("src")
	dstLoop := chanfabric.NewLoop("dst")
	t.Cleanup(func() { srcLoop.Stop(); dstLoop.Stop() })

	srcCfg := DefaultConfig()
	srcCfg.BlockSize = 16 << 10
	srcCfg.TransferMode = ModePull
	sinkCfg := srcCfg
	sinkCfg.TransferMode = ModePush

	ncfg, err := srcCfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	srcEP, err := NewEndpoint(srcDev, srcLoop, ncfg.Channels, ncfg.IODepth)
	if err != nil {
		t.Fatal(err)
	}
	dstEP, err := NewEndpoint(dstDev, dstLoop, ncfg.Channels, ncfg.IODepth)
	if err != nil {
		t.Fatal(err)
	}
	if err := srcEP.ConnectTo(dstEP, fab.ConnectQPs); err != nil {
		t.Fatal(err)
	}
	sink, err := NewSink(dstEP, sinkCfg)
	if err != nil {
		t.Fatal(err)
	}
	source, err := NewSource(srcEP, srcCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srcLoop.Post(0, source.Close)
		dstLoop.Post(0, sink.Close)
		time.Sleep(10 * time.Millisecond)
	})
	sink.NewWriter = func(info SessionInfo) BlockSink {
		t.Error("push-only sink admitted a pull session")
		return lockedWriterSink{w: &bytes.Buffer{}, mu: &sync.Mutex{}}
	}
	done := make(chan error, 1)
	data := randBytes(64<<10, 31)
	srcLoop.Post(0, func() {
		source.Start(func(err error) {
			if err != nil {
				done <- err
				return
			}
			source.Transfer(ReaderSource{R: bytes.NewReader(data)}, int64(len(data)),
				func(r TransferResult) { done <- r.Err })
		})
	})
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pull session against a push-only sink succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rejection timed out")
	}
}

// TestChanHybridModeSwitchRace flips the hybrid controller's load
// signal push→pull→push in the middle of live transfers under
// multi-session churn and asserts byte-exact delivery plus a settled
// credit/advertisement ledger on both sides afterwards. Real payload
// bytes (chanfabric carries them), so a block lost or duplicated
// across a mode-change handshake cannot hide.
func TestChanHybridModeSwitchRace(t *testing.T) {
	var load atomic.Uint64 // math.Float64bits of the probed CPU load
	load.Store(math.Float64bits(0.0))

	cfg := DefaultConfig()
	cfg.BlockSize = 4 << 10
	cfg.IODepth = 16
	cfg.SinkBlocks = 64
	cfg.TransferMode = ModeHybrid
	cfg.LoadProbe = func() float64 { return math.Float64frombits(load.Load()) }
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)

	const nSess = 3
	inputs := map[int][]byte{}
	for i := 0; i < nSess; i++ {
		inputs[i] = randBytes(2<<20+i*4099, int64(300+i))
	}
	var mu sync.Mutex
	outputs := map[uint32]*bytes.Buffer{}
	done := make(chan struct{}, 2*nSess)
	p.sink.NewWriter = func(info SessionInfo) BlockSink {
		mu.Lock()
		buf := &bytes.Buffer{}
		outputs[info.ID] = buf
		mu.Unlock()
		return lockedWriterSink{w: buf, mu: &mu}
	}
	p.sink.OnSessionDone = func(info SessionInfo, r TransferResult) {
		if r.Err != nil {
			t.Errorf("sink session %d: %v", info.ID, r.Err)
		}
		done <- struct{}{}
	}
	// Flip the load signal on transfer progress: busy once the first
	// third is out (→ pull), idle again past the second third (→ push).
	// Progress callbacks run on the source loop; sessions churn through
	// the flips at different byte offsets, racing handshakes against
	// live WRITEs, READs, and credit grants.
	third := int64(len(inputs[0])) / 3
	p.source.OnProgress = func(sess uint32, sent int64) {
		switch {
		case sent > 2*third:
			load.Store(math.Float64bits(0.0))
		case sent > third:
			load.Store(math.Float64bits(1.0))
		}
	}
	p.srcLoop.Post(0, func() {
		p.source.Start(func(err error) {
			if err != nil {
				t.Errorf("nego: %v", err)
				return
			}
			for i := 0; i < nSess; i++ {
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
	for i := 0; i < 2*nSess; i++ {
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("hybrid mode-switch transfer timed out")
		}
	}

	mu.Lock()
	matched := 0
	for _, buf := range outputs {
		for _, in := range inputs {
			if bytes.Equal(buf.Bytes(), in) {
				matched++
				break
			}
		}
	}
	mu.Unlock()
	if matched != nSess {
		t.Fatalf("only %d/%d hybrid session payloads survived the mode flips intact", matched, nSess)
	}

	// Ledger settlement: every advertisement answered, every READ
	// retired, every credit either consumed or reclaimed.
	srcCh := make(chan [2]int64, 1)
	p.srcLoop.Post(0, func() {
		srcCh <- [2]int64{int64(p.source.advertCount), p.source.stats.Adverts - p.source.stats.ReadsDone}
	})
	sinkCh := make(chan [3]int, 1)
	p.dstLoop.Post(0, func() {
		reads := 0
		for _, n := range p.sink.chReads {
			reads += n
		}
		backlog := 0
		for _, sess := range p.sink.sessions {
			backlog += len(sess.fetchQ)
		}
		sinkCh <- [3]int{p.sink.readsInflight, reads, backlog}
	})
	if s := <-srcCh; s[0] != 0 || s[1] != 0 {
		t.Fatalf("source advert ledger unsettled: %d outstanding, %d unanswered", s[0], s[1])
	}
	if k := <-sinkCh; k[0] != 0 || k[1] != 0 || k[2] != 0 {
		t.Fatalf("sink READ ledger unsettled: inflight=%d chReads=%d fetchQ=%d", k[0], k[1], k[2])
	}

	stCh := make(chan Stats, 1)
	p.srcLoop.Post(0, func() { stCh <- p.source.Stats() })
	st := <-stCh
	if st.ModeSwitches == 0 {
		t.Fatalf("hybrid controller never switched modes: %+v", st)
	}
	total := 0
	for _, in := range inputs {
		total += len(in)
	}
	if st.Bytes != int64(total) {
		t.Fatalf("stats bytes = %d, want %d (block lost or double-counted across a switch)", st.Bytes, total)
	}
}
