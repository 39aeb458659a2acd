package core

import (
	"testing"
	"time"

	"rftp/internal/hostmodel"
	"rftp/internal/telemetry"
)

// coalesceConfig is a transfer with real pool headroom beyond the
// source's pipeline depth — the regime the credit coalescer targets
// (small blocks, deep sink pool, completion via WRITE-with-imm).
func coalesceConfig() Config {
	cfg := DefaultConfig()
	cfg.BlockSize = 256 << 10
	cfg.IODepth = 16
	cfg.SinkBlocks = 96
	cfg.NotifyViaImm = true
	return cfg
}

// TestSimGrantCoalescingBatchesFrees is the grantOnFree regression: a
// sink whose stores complete in bursts (parallel storer threads with a
// fixed per-block cost) must route the resulting free→grant events
// through the coalescer and emit multi-credit MR_INFO_RESPONSEs, not
// one control message per freed block.
func TestSimGrantCoalescingBatchesFrees(t *testing.T) {
	cfg := coalesceConfig()
	p := newSimPipe(t, lanLink(), cfg)
	// Four storers with identical per-block cost complete in lockstep,
	// freeing blocks in bursts of four.
	storers := []*hostmodel.Thread{
		p.dstHost.NewThread("st0"), p.dstHost.NewThread("st1"),
		p.dstHost.NewThread("st2"), p.dstHost.NewThread("st3"),
	}
	p.sink.NewWriter = func(SessionInfo) BlockSink {
		return &hostmodel.ModelSink{Storers: storers, PerBlock: 100 * time.Microsecond}
	}
	reg := telemetry.NewRegistry("sink")
	p.sink.AttachTelemetry(reg)
	p.runTransfer(t, 64<<20)

	st := p.sink.Stats()
	if st.GrantMsgs == 0 {
		t.Fatal("no grant messages recorded")
	}
	mean := float64(st.CreditsGranted) / float64(st.GrantMsgs)
	if mean <= 1.5 {
		t.Fatalf("mean grant batch %.2f (%d credits / %d msgs): coalescer not batching",
			mean, st.CreditsGranted, st.GrantMsgs)
	}
	snap := reg.Snapshot()
	if onFree := snap.Counter("grants_on_free"); onFree == 0 {
		t.Fatal("grants_on_free = 0: on-free leg never granted")
	}
	if h := snap.Histogram("credit_batch_size"); h.Count != st.GrantMsgs {
		t.Fatalf("credit_batch_size count %d != grant msgs %d", h.Count, st.GrantMsgs)
	}
}

// TestSimCoalescingReducesControlMessages compares the same transfer
// with coalescing disabled (CreditBatch=1, the pre-coalescing
// behavior) and enabled: the batched run must cut the sink's control
// messages by at least 3× at equal goodput.
func TestSimCoalescingReducesControlMessages(t *testing.T) {
	run := func(batch int) (Stats, Stats) {
		cfg := coalesceConfig()
		cfg.CreditBatch = batch
		cfg.CreditWindow = cfg.SinkBlocks // isolate batching from the adaptive window
		p := newSimPipe(t, lanLink(), cfg)
		p.runTransfer(t, 128<<20)
		return p.source.Stats(), p.sink.Stats()
	}
	srcSeed, sinkSeed := run(1)
	srcBat, sinkBat := run(16)

	if sinkBat.CtrlMsgs*3 > sinkSeed.CtrlMsgs {
		t.Fatalf("sink ctrl msgs %d (batched) vs %d (unbatched): less than 3× reduction",
			sinkBat.CtrlMsgs, sinkSeed.CtrlMsgs)
	}
	if bw, seed := srcBat.BandwidthGbps(), srcSeed.BandwidthGbps(); bw < 0.98*seed {
		t.Fatalf("goodput %.2f Gbps under coalescing vs %.2f unbatched", bw, seed)
	}
	if srcBat.Blocks != srcSeed.Blocks {
		t.Fatalf("block counts diverged: %d vs %d", srcBat.Blocks, srcSeed.Blocks)
	}
}

// TestSimCreditWindowOverride pins the window with Config.CreditWindow
// and checks the sink never exceeds it, while the transfer still
// completes with an intact pool.
func TestSimCreditWindowOverride(t *testing.T) {
	cfg := coalesceConfig()
	cfg.CreditWindow = 24
	p := newSimPipe(t, lanLink(), cfg)
	p.runTransfer(t, 32<<20)
	ncfg, _ := cfg.Normalize()
	if free := p.sink.pool.countState(BlockFree); free+p.sink.granted != ncfg.SinkBlocks {
		t.Fatalf("pool leak: %d free + %d granted != %d", free, p.sink.granted, ncfg.SinkBlocks)
	}
	if w := p.sink.targetWindow(); w != 24 {
		t.Fatalf("targetWindow() = %d with override 24", w)
	}
}
