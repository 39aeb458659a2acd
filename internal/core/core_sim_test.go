package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"rftp/internal/fabric/simfabric"
	"rftp/internal/hostmodel"
	"rftp/internal/sim"
	"rftp/internal/trace"
	"rftp/internal/verbs"
	"rftp/internal/wire"
)

// simPipe wires a Source and Sink over the simulated fabric.
type simPipe struct {
	sched   *sim.Scheduler
	srcHost *hostmodel.Host
	dstHost *hostmodel.Host
	srcLoop *hostmodel.Thread
	dstLoop *hostmodel.Thread
	loader  *hostmodel.Thread
	storer  *hostmodel.Thread
	source  *Source
	sink    *Sink
}

func lanLink() simfabric.LinkConfig {
	return simfabric.LinkConfig{RateBps: 40e9, PropDelay: 12500 * time.Nanosecond, MTU: 9000, HeaderBytes: 58}
}

func wanLink() simfabric.LinkConfig {
	return simfabric.LinkConfig{RateBps: 10e9, PropDelay: 24500 * time.Microsecond, MTU: 9000, HeaderBytes: 58}
}

func newSimPipe(t testing.TB, link simfabric.LinkConfig, cfg Config) *simPipe {
	t.Helper()
	p := &simPipe{sched: sim.New(1)}
	fab := simfabric.New(p.sched)
	p.srcHost = hostmodel.NewHost(p.sched, "src", 16, hostmodel.DefaultParams())
	p.dstHost = hostmodel.NewHost(p.sched, "dst", 16, hostmodel.DefaultParams())
	srcDev := fab.NewDevice("sim0", p.srcHost, simfabric.DefaultNICProfile())
	dstDev := fab.NewDevice("sim1", p.dstHost, simfabric.DefaultNICProfile())
	fab.Connect(srcDev, dstDev, link)
	p.srcLoop = p.srcHost.NewThread("src-proto")
	p.dstLoop = p.dstHost.NewThread("dst-proto")
	p.loader = p.srcHost.NewThread("loader")
	p.storer = p.dstHost.NewThread("storer")

	cfg.ModelPayload = true
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
	return p
}

// runTransfer performs one modeled dataset transfer and returns results.
func (p *simPipe) runTransfer(t testing.TB, total int64) (TransferResult, TransferResult) {
	t.Helper()
	var srcRes, sinkRes TransferResult
	srcDone, sinkDone := false, false
	p.sink.OnSessionDone = func(info SessionInfo, r TransferResult) {
		sinkRes, sinkDone = r, true
	}
	p.source.Start(func(err error) {
		if err != nil {
			t.Errorf("negotiation: %v", err)
			return
		}
		src := &hostmodel.ModelSource{Total: total, Loader: p.loader, NsPerByte: p.srcHost.Params.MemLoadNsPerByte}
		p.source.Transfer(src, total, func(r TransferResult) { srcRes, srcDone = r, true })
	})
	p.sched.RunAll()
	if !srcDone || !sinkDone {
		t.Fatalf("transfer did not complete: src=%v sink=%v (pending=%d)", srcDone, sinkDone, p.sched.Pending())
	}
	return srcRes, sinkRes
}

func TestSimTransferCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 1 << 20
	cfg.IODepth = 16
	p := newSimPipe(t, lanLink(), cfg)
	total := int64(256 << 20)
	srcRes, sinkRes := p.runTransfer(t, total)
	if srcRes.Err != nil || sinkRes.Err != nil {
		t.Fatalf("errors: src=%v sink=%v", srcRes.Err, sinkRes.Err)
	}
	if srcRes.Bytes != total || sinkRes.Bytes != total {
		t.Fatalf("bytes: src=%d sink=%d want %d", srcRes.Bytes, sinkRes.Bytes, total)
	}
	wantBlocks := int64(256 << 20 / (1<<20 - 32))
	if sinkRes.Blocks < wantBlocks || sinkRes.Blocks > wantBlocks+2 {
		t.Fatalf("blocks = %d, want ~%d", sinkRes.Blocks, wantBlocks)
	}
}

func TestSimTransferSaturatesLAN(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 4 << 20
	cfg.IODepth = 32
	p := newSimPipe(t, lanLink(), cfg)
	total := int64(1 << 30)
	p.runTransfer(t, total)
	st := p.source.Stats()
	bw := st.BandwidthGbps()
	// 40 Gbps link: the protocol must reach at least 85% of line rate.
	if bw < 34 || bw > 40 {
		t.Fatalf("LAN bandwidth = %.1f Gbps, want 34-40", bw)
	}
}

func TestSimTransferSaturatesWANWithDepth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 4 << 20
	cfg.IODepth = 64
	cfg.SinkBlocks = 128
	p := newSimPipe(t, wanLink(), cfg)
	total := int64(2 << 30)
	p.runTransfer(t, total)
	bw := p.source.Stats().BandwidthGbps()
	// 10 Gbps, 49 ms RTT: BDP = 61 MB; 64 x 4 MiB in flight covers it.
	// Includes the slow-start-like credit ramp, so allow 8+.
	if bw < 8 || bw > 10 {
		t.Fatalf("WAN bandwidth = %.1f Gbps, want 8-10", bw)
	}
}

func TestSimWANShallowDepthStarves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 1 << 20
	cfg.IODepth = 4
	cfg.SinkBlocks = 8
	p := newSimPipe(t, wanLink(), cfg)
	p.runTransfer(t, 512<<20)
	bw := p.source.Stats().BandwidthGbps()
	// 8 MiB window over a 61 MB BDP path: bandwidth must collapse well
	// below line rate (this is the paper's core argument for deep
	// pipelines).
	if bw > 3 {
		t.Fatalf("shallow depth reached %.1f Gbps; expected starvation <3", bw)
	}
}

func TestSimMultiChannel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 4
	cfg.BlockSize = 1 << 20
	cfg.IODepth = 32
	p := newSimPipe(t, lanLink(), cfg)
	srcRes, sinkRes := p.runTransfer(t, 256<<20)
	if srcRes.Err != nil || sinkRes.Err != nil {
		t.Fatalf("errors: %v %v", srcRes.Err, sinkRes.Err)
	}
	if sinkRes.Bytes != 256<<20 {
		t.Fatalf("sink bytes = %d", sinkRes.Bytes)
	}
}

func TestSimEmptyDataset(t *testing.T) {
	cfg := DefaultConfig()
	p := newSimPipe(t, lanLink(), cfg)
	srcRes, sinkRes := p.runTransfer(t, 0)
	if srcRes.Err != nil || sinkRes.Err != nil {
		t.Fatalf("errors: %v %v", srcRes.Err, sinkRes.Err)
	}
	if srcRes.Bytes != 0 || sinkRes.Bytes != 0 {
		t.Fatalf("bytes: %d %d", srcRes.Bytes, sinkRes.Bytes)
	}
}

func TestSimSingleShortBlock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 1 << 20
	p := newSimPipe(t, lanLink(), cfg)
	srcRes, sinkRes := p.runTransfer(t, 1000)
	if srcRes.Bytes != 1000 || sinkRes.Bytes != 1000 {
		t.Fatalf("bytes: %d %d", srcRes.Bytes, sinkRes.Bytes)
	}
	if sinkRes.Blocks != 1 {
		t.Fatalf("blocks = %d, want 1", sinkRes.Blocks)
	}
}

func TestSimExactMultipleOfBlock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 1<<20 + 32 // payload capacity exactly 1 MiB
	p := newSimPipe(t, lanLink(), cfg)
	total := int64(8 << 20) // exactly 8 payloads
	srcRes, sinkRes := p.runTransfer(t, total)
	if srcRes.Err != nil || sinkRes.Err != nil {
		t.Fatalf("errors: %v %v", srcRes.Err, sinkRes.Err)
	}
	if sinkRes.Bytes != total {
		t.Fatalf("bytes = %d", sinkRes.Bytes)
	}
}

func TestSimOnDemandCreditsSlower(t *testing.T) {
	run := func(policy CreditPolicy) time.Duration {
		cfg := DefaultConfig()
		cfg.BlockSize = 1 << 20
		cfg.IODepth = 16
		cfg.SinkBlocks = 32
		cfg.CreditPolicy = policy
		cfg.OnDemandBatch = 16
		p := newSimPipe(t, wanLink(), cfg)
		p.runTransfer(t, 256<<20)
		return p.source.Stats().Elapsed()
	}
	proactive := run(CreditProactive)
	onDemand := run(CreditOnDemand)
	if onDemand <= proactive {
		t.Fatalf("on-demand (%v) not slower than proactive (%v) on the WAN", onDemand, proactive)
	}
}

func TestSimOnDemandStallsCounted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CreditPolicy = CreditOnDemand
	p := newSimPipe(t, lanLink(), cfg)
	p.runTransfer(t, 64<<20)
	if p.source.Stats().CreditStalls == 0 {
		t.Fatal("on-demand policy recorded no credit stalls")
	}
}

func TestSimProactiveFewStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 1 << 20
	cfg.IODepth = 16
	cfg.SinkBlocks = 64
	p := newSimPipe(t, lanLink(), cfg)
	p.runTransfer(t, 256<<20)
	st := p.source.Stats()
	// With active feedback the source should essentially never block on
	// credits in a LAN.
	if st.CreditStalls > st.Blocks/10 {
		t.Fatalf("proactive policy stalled %d times over %d blocks", st.CreditStalls, st.Blocks)
	}
}

func TestSimMultipleSequentialTransfers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 1 << 20
	p := newSimPipe(t, lanLink(), cfg)
	var results []TransferResult
	p.source.Start(func(err error) {
		if err != nil {
			t.Errorf("nego: %v", err)
			return
		}
		var next func(i int)
		next = func(i int) {
			if i == 3 {
				return
			}
			src := &hostmodel.ModelSource{Total: 32 << 20, Loader: p.loader, NsPerByte: 0.16}
			p.source.Transfer(src, 32<<20, func(r TransferResult) {
				results = append(results, r)
				next(i + 1)
			})
		}
		next(0)
	})
	p.sched.RunAll()
	if len(results) != 3 {
		t.Fatalf("completed %d transfers, want 3", len(results))
	}
	for i, r := range results {
		if r.Err != nil || r.Bytes != 32<<20 {
			t.Fatalf("transfer %d: %+v", i, r)
		}
	}
}

func TestSimConcurrentSessions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 1 << 20
	cfg.IODepth = 32
	p := newSimPipe(t, lanLink(), cfg)
	got := map[uint32]TransferResult{}
	p.source.Start(func(err error) {
		if err != nil {
			t.Errorf("nego: %v", err)
			return
		}
		for i := 0; i < 3; i++ {
			src := &hostmodel.ModelSource{Total: 64 << 20, Loader: p.loader, NsPerByte: 0.16}
			p.source.Transfer(src, 64<<20, func(r TransferResult) { got[r.Session] = r })
		}
	})
	p.sched.RunAll()
	if len(got) != 3 {
		t.Fatalf("finished %d sessions, want 3", len(got))
	}
	for id, r := range got {
		if r.Err != nil || r.Bytes != 64<<20 {
			t.Fatalf("session %d: %+v", id, r)
		}
	}
}

func TestSimLoaderErrorAbortsSession(t *testing.T) {
	cfg := DefaultConfig()
	p := newSimPipe(t, lanLink(), cfg)
	injected := errors.New("disk on fire")
	var srcRes TransferResult
	var sinkRes TransferResult
	p.sink.OnSessionDone = func(info SessionInfo, r TransferResult) { sinkRes = r }
	p.source.Start(func(err error) {
		p.source.Transfer(newFailingSource(3, injected, p.loader), 0,
			func(r TransferResult) { srcRes = r })
	})
	p.sched.RunAll()
	if !errors.Is(srcRes.Err, injected) {
		t.Fatalf("source error = %v, want injected", srcRes.Err)
	}
	if !errors.Is(sinkRes.Err, ErrAborted) {
		t.Fatalf("sink error = %v, want ErrAborted", sinkRes.Err)
	}
}

// newFailingSource returns a BlockSource that loads `after` good blocks
// then fails with err.
func newFailingSource(after int, err error, loader *hostmodel.Thread) BlockSource {
	n := 0
	return loadFunc(func(p []byte, capacity int, done func(int, bool, error)) {
		n++
		if n > after {
			loader.Post(0, func() { done(0, false, err) })
			return
		}
		loader.Post(0, func() { done(capacity, false, nil) })
	})
}

type loadFunc func([]byte, int, func(int, bool, error))

func (f loadFunc) Load(p []byte, capacity int, done func(int, bool, error)) { f(p, capacity, done) }

func TestSimStoreErrorAbortsSession(t *testing.T) {
	cfg := DefaultConfig()
	p := newSimPipe(t, lanLink(), cfg)
	injected := errors.New("sink disk full")
	p.sink.NewWriter = func(SessionInfo) BlockSink {
		n := 0
		return storeFunc(func(hdrSeq, modelLen int, done func(error)) {
			n++
			if n > 2 {
				p.storer.Post(0, func() { done(injected) })
				return
			}
			p.storer.Post(0, func() { done(nil) })
		})
	}
	var srcRes, sinkRes TransferResult
	p.sink.OnSessionDone = func(info SessionInfo, r TransferResult) { sinkRes = r }
	p.source.Start(func(err error) {
		src := &hostmodel.ModelSource{Total: 64 << 20, Loader: p.loader, NsPerByte: 0.16}
		p.source.Transfer(src, 64<<20, func(r TransferResult) { srcRes = r })
	})
	p.sched.RunAll()
	if !errors.Is(sinkRes.Err, injected) {
		t.Fatalf("sink error = %v", sinkRes.Err)
	}
	if srcRes.Err == nil {
		t.Fatal("source did not observe the abort")
	}
}

// storeFunc adapts a closure to BlockSink (header reduced to seq for
// brevity).
type storeFunc func(hdrSeq, modelLen int, done func(error))

func (f storeFunc) Store(hdr wire.BlockHeader, payload []byte, modelLen int, done func(error)) {
	f(int(hdr.Seq), modelLen, done)
}

func TestSimChannelMismatchRejected(t *testing.T) {
	// Source asks for 2 channels; endpoints only have 1 wired: the
	// channel negotiation must reject.
	cfg := DefaultConfig()
	p := newSimPipe(t, lanLink(), cfg)
	// Corrupt the source's view: pretend it wants 3 channels.
	p.source.cfg.Channels = 3
	var negoErr error
	p.source.Start(func(err error) { negoErr = err })
	p.sched.RunAll()
	if !errors.Is(negoErr, ErrNegotiationRejected) {
		t.Fatalf("negotiation error = %v, want rejection", negoErr)
	}
}

func TestSimBlockSizeOutOfRangeRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 300 << 20 // above the sink's 256 MiB cap
	p := newSimPipe(t, lanLink(), cfg)
	var negoErr error
	p.source.Start(func(err error) { negoErr = err })
	p.sched.RunAll()
	if !errors.Is(negoErr, ErrNegotiationRejected) {
		t.Fatalf("negotiation error = %v, want rejection", negoErr)
	}
}

func TestSimCreditConservation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 1 << 20
	cfg.IODepth = 8
	cfg.SinkBlocks = 16
	p := newSimPipe(t, lanLink(), cfg)
	p.runTransfer(t, 128<<20)
	// After a completed transfer every sink block must be back in the
	// free pool: credits granted == blocks consumed + unused outstanding,
	// and the pool must be whole.
	if free := p.sink.pool.countState(BlockFree); free+p.sink.granted != cfg.SinkBlocks {
		t.Fatalf("pool leak: %d free + %d granted != %d", free, p.sink.granted, cfg.SinkBlocks)
	}
	srcStats, sinkStats := p.source.Stats(), p.sink.Stats()
	if srcStats.Blocks != sinkStats.Blocks {
		t.Fatalf("block count mismatch: src %d sink %d", srcStats.Blocks, sinkStats.Blocks)
	}
	if sinkStats.CreditsGranted < srcStats.Blocks {
		t.Fatalf("granted %d credits for %d blocks", sinkStats.CreditsGranted, srcStats.Blocks)
	}
}

func TestSimExponentialRamp(t *testing.T) {
	// With GrantPerConsume=2 the sink's outstanding credits must grow
	// multiplicatively early in the WAN transfer; with 1 they grow only
	// via the initial grant. Compare ramp times to first full window.
	rampTime := func(grant int) time.Duration {
		cfg := DefaultConfig()
		cfg.BlockSize = 1 << 20
		cfg.IODepth = 64
		cfg.SinkBlocks = 128
		cfg.GrantPerConsume = grant
		p := newSimPipe(t, wanLink(), cfg)
		p.runTransfer(t, 512<<20)
		return p.source.Stats().Elapsed()
	}
	exp := rampTime(2)
	lin := rampTime(1)
	if lin <= exp {
		t.Fatalf("linear grant (%v) not slower than exponential (%v)", lin, exp)
	}
}

func TestSimZeroChannelEndpoint(t *testing.T) {
	s := sim.New(1)
	fab := simfabric.New(s)
	h := hostmodel.NewHost(s, "h", 4, hostmodel.DefaultParams())
	dev := fab.NewDevice("d", h, simfabric.DefaultNICProfile())
	_ = dev
	if _, err := NewEndpoint(dev, h.NewThread("l"), 0, 8); err == nil {
		t.Fatal("0-channel endpoint created")
	}
}

func TestSimSourceChannelConfigMismatch(t *testing.T) {
	s := sim.New(1)
	fab := simfabric.New(s)
	h := hostmodel.NewHost(s, "h", 4, hostmodel.DefaultParams())
	dev := fab.NewDevice("d", h, simfabric.DefaultNICProfile())
	ep, err := NewEndpoint(dev, h.NewThread("l"), 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Channels = 2
	if _, err := NewSource(ep, cfg); err == nil {
		t.Fatal("channel mismatch accepted")
	}
	_ = verbs.RC
}

func TestTraceCapturesProtocolEvents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 1 << 20
	p := newSimPipe(t, lanLink(), cfg)
	srcRing := trace.NewRing(512, p.sched.Now)
	sinkRing := trace.NewRing(512, p.sched.Now)
	p.source.Trace = srcRing
	p.sink.Trace = sinkRing
	p.runTransfer(t, 64<<20)

	srcMsgs := ""
	for _, e := range srcRing.Events() {
		srcMsgs += e.String() + "\n"
	}
	for _, want := range []string{"nego_start", "nego_complete", "session_open sess=1", "complete_ack sess=1"} {
		if !strings.Contains(srcMsgs, want) {
			t.Fatalf("source trace missing %q:\n%s", want, srcMsgs)
		}
	}
	sinkMsgs := ""
	for _, e := range sinkRing.Events() {
		sinkMsgs += e.String() + "\n"
	}
	for _, want := range []string{"blocksize_accepted", "session_accept sess=1", "grant_", "session_complete sess=1"} {
		if !strings.Contains(sinkMsgs, want) {
			t.Fatalf("sink trace missing %q:\n%s", want, sinkMsgs)
		}
	}
	if len(srcRing.Filter(trace.CatBlock)) == 0 || len(sinkRing.Filter(trace.CatBlock)) == 0 {
		t.Fatal("no block events traced")
	}
	if len(srcRing.Filter(trace.CatError)) != 0 {
		t.Fatal("clean transfer traced errors")
	}
}

func TestOnProgressMonotonic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 1 << 20
	p := newSimPipe(t, lanLink(), cfg)
	var reports []int64
	p.source.OnProgress = func(session uint32, bytes int64) {
		if session != 1 {
			t.Errorf("progress for session %d", session)
		}
		reports = append(reports, bytes)
	}
	total := int64(64 << 20)
	p.runTransfer(t, total)
	if len(reports) == 0 {
		t.Fatal("no progress reports")
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] <= reports[i-1] {
			t.Fatalf("progress not monotonic at %d: %v", i, reports[i-1:i+1])
		}
	}
	if reports[len(reports)-1] != total {
		t.Fatalf("final progress = %d, want %d", reports[len(reports)-1], total)
	}
}
