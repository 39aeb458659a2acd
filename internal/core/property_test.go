package core

import (
	"bytes"
	"math/rand"
	"testing"

	"rftp/internal/fabric/chanfabric"
)

// TestRandomConfigIntegrityProperty is the end-to-end property of the
// whole stack: for arbitrary (block size, channel count, I/O depth,
// payload length, notification mode), a transfer over the in-process
// fabric delivers exactly the input bytes in order.
func TestRandomConfigIntegrityProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is slow")
	}
	rng := rand.New(rand.NewSource(2026))
	for i := 0; i < 12; i++ {
		cfg := DefaultConfig()
		cfg.BlockSize = 128 + rng.Intn(256<<10)
		cfg.Channels = 1 + rng.Intn(6)
		cfg.IODepth = 1 + rng.Intn(32)
		cfg.SinkBlocks = cfg.IODepth + 1 + rng.Intn(2*cfg.IODepth)
		cfg.GrantPerConsume = 1 + rng.Intn(4)
		cfg.NotifyViaImm = rng.Intn(2) == 1
		cfg.CreditBatch = 1 + rng.Intn(64)
		cfg.CreditWindow = rng.Intn(2) * (1 + rng.Intn(cfg.SinkBlocks))
		if rng.Intn(4) == 0 {
			cfg.CreditPolicy = CreditOnDemand
		}
		n := rng.Intn(2 << 20)
		data := make([]byte, n)
		rng.Read(data)

		t.Run("", func(t *testing.T) {
			p := newChanPipe(t, chanfabric.Shaping{}, cfg)
			got := p.transferBytes(t, data)
			if !bytes.Equal(got, data) {
				t.Fatalf("case %d (cfg=%+v, n=%d): corrupted (%d bytes out)", i, cfg, n, len(got))
			}
		})
	}
}

// TestRandomSimConfigsComplete is the virtual-time counterpart: random
// configurations on random link profiles must complete with exact byte
// accounting and an intact sink pool. The coalescing knobs (flush
// threshold, flush timer, window override) are randomized too, so the
// final pool-conservation check doubles as the credit-conservation
// property under arbitrarily timed flush firings: every credit the
// coalescer queued, deferred, flushed, or dropped is either consumed
// (block moved) or still granted, and free + granted always
// reconstructs the whole pool.
func TestRandomSimConfigsComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		cfg := DefaultConfig()
		cfg.BlockSize = 1024 * (1 + rng.Intn(2048))
		cfg.Channels = 1 + rng.Intn(4)
		cfg.IODepth = 1 + rng.Intn(64)
		cfg.NotifyViaImm = rng.Intn(2) == 1
		cfg.CreditBatch = 1 + rng.Intn(64)
		if rng.Intn(2) == 1 {
			cfg.CreditWindow = 1 + rng.Intn(2*cfg.IODepth)
		}
		link := lanLink()
		if rng.Intn(2) == 1 {
			link = wanLink()
		}
		total := int64(rng.Intn(256 << 20))
		p := newSimPipe(t, link, cfg)
		srcRes, sinkRes := p.runTransfer(t, total)
		if srcRes.Err != nil || sinkRes.Err != nil {
			t.Fatalf("case %d: errors %v / %v (cfg=%+v)", i, srcRes.Err, sinkRes.Err, cfg)
		}
		if srcRes.Bytes != total || sinkRes.Bytes != total {
			t.Fatalf("case %d: bytes %d/%d want %d", i, srcRes.Bytes, sinkRes.Bytes, total)
		}
		ncfg, _ := cfg.Normalize()
		if free := p.sink.pool.countState(BlockFree); free+p.sink.granted != ncfg.SinkBlocks {
			t.Fatalf("case %d: pool leak: %d free + %d granted != %d", i, free, p.sink.granted, ncfg.SinkBlocks)
		}
	}
}
