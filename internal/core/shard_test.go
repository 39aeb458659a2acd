package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"rftp/internal/fabric/chanfabric"
	"rftp/internal/verbs"
)

// newShardedChanPipe wires a Source and Sink over the channel fabric
// with N reactor loops per side, optionally drawing block registrations
// from shared pin-down caches. Every loop is a real goroutine, so
// multi-reactor runs exercise the cross-loop mailbox handoffs under the
// race detector. fab/srcDev/dstDev may be reused across calls to model
// sequential connections on one fabric.
func newShardedChanPipe2(t *testing.T, fab *chanfabric.Fabric, srcDev, dstDev *chanfabric.Device,
	cfg Config, reactors int, srcCache, dstCache *verbs.MRCache) *chanPipe {
	t.Helper()
	p := &chanPipe{
		srcLoop: chanfabric.NewLoop("src"),
		dstLoop: chanfabric.NewLoop("dst"),
	}
	srcLoops := []verbs.Loop{p.srcLoop}
	dstLoops := []verbs.Loop{p.dstLoop}
	var extra []*chanfabric.Loop
	for i := 1; i < reactors; i++ {
		sl := chanfabric.NewLoop(fmt.Sprintf("src-shard%d", i))
		dl := chanfabric.NewLoop(fmt.Sprintf("dst-shard%d", i))
		extra = append(extra, sl, dl)
		srcLoops = append(srcLoops, sl)
		dstLoops = append(dstLoops, dl)
	}
	t.Cleanup(func() {
		p.srcLoop.Stop()
		p.dstLoop.Stop()
		for _, l := range extra {
			l.Stop()
		}
	})
	ncfg, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	srcEP, err := NewServiceEndpoint(srcDev, srcLoops, ncfg.Channels, ncfg.IODepth, 1)
	if err != nil {
		t.Fatal(err)
	}
	dstEP, err := NewServiceEndpoint(dstDev, dstLoops, ncfg.Channels, ncfg.IODepth, 1)
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

// TestShardedTransferMultiReactor moves real bytes through 2- and
// 4-reactor pipes (4 data channels): block ownership crosses loop
// boundaries through the shard mailboxes on every block, in both
// notification modes.
func TestShardedTransferMultiReactor(t *testing.T) {
	for _, reactors := range []int{2, 4} {
		for _, imm := range []bool{false, true} {
			t.Run(fmt.Sprintf("reactors=%d,imm=%v", reactors, imm), func(t *testing.T) {
				fab := chanfabric.New()
				srcDev := fab.NewDevice("cf0")
				dstDev := fab.NewDevice("cf1")
				fab.Connect(srcDev, dstDev, chanfabric.Shaping{})
				cfg := DefaultConfig()
				cfg.BlockSize = 32 << 10
				cfg.Channels = 4
				cfg.IODepth = 8
				cfg.NotifyViaImm = imm
				p := newShardedChanPipe2(t, fab, srcDev, dstDev, cfg, reactors, nil, nil)
				defer closePipe(p)
				data := randBytes(3<<20+137, int64(100+reactors))
				got := p.transferBytes(t, data)
				if !bytes.Equal(got, data) {
					t.Fatalf("sharded transfer corrupted: %d vs %d bytes", len(got), len(data))
				}
			})
		}
	}
}

// TestShardedTransferSequentialSessions runs two sessions back to back
// on a 2-reactor pipe to cover session turnover with live shards.
func TestShardedTransferSequentialSessions(t *testing.T) {
	fab := chanfabric.New()
	srcDev := fab.NewDevice("cf0")
	dstDev := fab.NewDevice("cf1")
	fab.Connect(srcDev, dstDev, chanfabric.Shaping{})
	cfg := DefaultConfig()
	cfg.BlockSize = 16 << 10
	cfg.Channels = 2
	cfg.IODepth = 8
	p := newShardedChanPipe2(t, fab, srcDev, dstDev, cfg, 2, nil, nil)
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
		p := newShardedChanPipe2(t, fab, srcDev, dstDev, cfg, 1, srcCache, dstCache)
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

// TestMailboxWakeOrdering hammers one cross-loop mailbox from a
// producer goroutine while the consumer loop drains: every value must
// arrive exactly once, in order.
func TestMailboxWakeOrdering(t *testing.T) {
	loop := chanfabric.NewLoop("mbox")
	defer loop.Stop()
	var mu sync.Mutex
	var got []int
	mb := newMailbox[int](loop, false, 8, func(v int) {
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
	})
	const n = 10000
	for i := 0; i < n; i++ {
		mb.send(i)
	}
	deadline := time.After(10 * time.Second)
	for {
		mu.Lock()
		l := len(got)
		mu.Unlock()
		if l == n {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("mailbox delivered %d of %d", l, n)
		case <-time.After(time.Millisecond):
		}
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: got %d", i, v)
		}
	}
}
