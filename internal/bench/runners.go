package bench

import (
	"fmt"
	"runtime"
	"time"

	"rftp/internal/core"
	"rftp/internal/diskmodel"
	"rftp/internal/fabric/simfabric"
	"rftp/internal/gridftp"
	"rftp/internal/hostmodel"
	"rftp/internal/sim"
	"rftp/internal/spans"
	"rftp/internal/tcpmodel"
	"rftp/internal/telemetry"
	"rftp/internal/verbs"
	"rftp/internal/wire"
)

// RFTPOptions configures one RFTP run on a testbed.
type RFTPOptions struct {
	Config     core.Config
	TotalBytes int64
	// Disk routes the sink to a modeled RAID array.
	Disk     bool
	DiskMode diskmodel.Mode
	DiskCfg  diskmodel.ArrayConfig
	// SrcDisk routes the source to a modeled RAID array: loads become
	// spindle-parallel reads whose latency only overlaps when
	// Config.LoadDepth keeps several in flight (the load-depth
	// ablation's disk-bound regime).
	SrcDisk     bool
	SrcDiskMode diskmodel.Mode
	SrcDiskCfg  diskmodel.ArrayConfig
	// Loaders / Storers spread memory-model loads/stores over N CPU
	// threads (0 or 1 = the single dedicated thread).
	Loaders int
	Storers int
	// Sessions multiplexes N concurrent tenants over the one
	// connection's shared data channels (0 or 1 = classic single
	// session). TotalBytes is split across the tenants proportionally to
	// their weights, so fair scheduling makes them finish together.
	Sessions int
	// SessionWeights cycles DRR weights over the tenants (tenant i gets
	// SessionWeights[i % len]; empty = equal weight 1). Also installed
	// as Config.TenantWeights unless the config sets its own.
	SessionWeights []int
	// SrcBusy co-locates a competing compute job on the source host's
	// protocol thread: every scheduling quantum, the connection's loop
	// thread loses this fraction of its CPU to the other job. Models the
	// paper's busy data source — the regime where the pull path's
	// one-sided READs win by moving per-block data-path work to the
	// receiver. The same value feeds Config.LoadProbe (unless the caller
	// set its own), standing in for the OS load average the hybrid
	// controller would consult on a real host. 0 = idle host.
	SrcBusy float64
	Seed    int64
	// Telemetry, when non-nil, instruments the run: source/sink protocol
	// metrics and per-device fabric metrics are registered as children.
	// Nil runs stay uninstrumented (and measure the disabled-path cost).
	Telemetry *telemetry.Registry
	// SpanSample, with Telemetry set, records block lifecycle spans and
	// pipeline stall attribution for 1 in N blocks (0 = off, 1 = every
	// block). Drives the stall-attrib columns and the Fig3b flip test.
	SpanSample int
}

// RunResult is a normalized result row for either tool.
type RunResult struct {
	Tool          string
	BandwidthGbps float64
	// ClientCPU / ServerCPU are percent of one core, whole host
	// (protocol threads + loader/storer), matching how the paper reads
	// nmon.
	ClientCPU float64
	ServerCPU float64
	Bytes     int64
	Elapsed   time.Duration
	// Stalls is the source credit-starvation count (RFTP only).
	Stalls int64
	// CtrlMsgs counts control messages (RFTP only).
	CtrlMsgs int64
	// CtrlPerBlock is control messages per transferred block across both
	// endpoints — the figure of merit for control-plane coalescing
	// (RFTP only).
	CtrlPerBlock float64
	// GrantBatchMean is the mean credits per MR_INFO_RESPONSE the sink
	// emitted: 1.0 means no coalescing, MaxCreditsPerMsg is the wire
	// ceiling (RFTP only).
	GrantBatchMean float64
	// Retrans counts TCP retransmissions (GridFTP only).
	Retrans uint64
	// RNR counts fabric receiver-not-ready NAKs (RFTP only).
	RNR uint64
	// AllocsPerBlock is heap allocations per transferred block across the
	// whole run (protocol machinery + simulator), from runtime.MemStats.
	// Tracks data-path allocation churn across revisions (RFTP only).
	AllocsPerBlock float64
	// CopiedPerBlock is CPU-copied payload bytes per block, from
	// verbs.CopiedBytes. Zero-copy placement keeps it near zero even as
	// block sizes grow (RFTP only).
	CopiedPerBlock float64
	// TopStall names the dominant pipeline stall cause from the span
	// layer's attributor ("" when spans were off or nothing stalled) and
	// TopStallShare its fraction of total attributed stall time
	// (RFTP runs with Telemetry + SpanSample only).
	TopStall      string
	TopStallShare float64
	// Sessions is the concurrent tenant count of the run (1 = classic
	// single session).
	Sessions int
	// SessionGbps is each tenant's whole-run goodput (multi-session
	// runs only; index matches the transfer issue order, which matches
	// the sink's session-id order).
	SessionGbps []float64
	// JainIndex is Jain's fairness index over weight-normalized
	// per-tenant goodput: 1.0 means every tenant got exactly its
	// proportional share (multi-session runs only).
	JainIndex float64
	// MemPerSession is retained protocol heap bytes per tenant
	// (post-GC heap growth across the run divided by the session
	// count; multi-session runs only).
	MemPerSession float64
}

// startGate parks multi-tenant first loads until every session is
// admitted, so fairness is measured over concurrently-backlogged flows
// rather than the admission ramp. Control-loop confined: loads park on
// the source loop and release is posted onto the same loop.
type startGate struct {
	open bool
	q    []func()
}

func (g *startGate) run(f func()) {
	if g.open {
		f()
		return
	}
	g.q = append(g.q, f)
}

func (g *startGate) release() {
	g.open = true
	for _, f := range g.q {
		f()
	}
	g.q = nil
}

// gatedSource holds its inner source's loads behind the start gate.
type gatedSource struct {
	inner core.BlockSource
	gate  *startGate
}

func (s *gatedSource) Load(p []byte, capacity int, done func(int, bool, error)) {
	s.gate.run(func() { s.inner.Load(p, capacity, done) })
}

// jainIndex computes Jain's fairness index (Σx)²/(n·Σx²) over the
// weight-normalized rates x_i = rate_i / weight_i.
func jainIndex(rates []float64, weight func(int) int) float64 {
	var sum, sum2 float64
	for i, r := range rates {
		x := r / float64(weight(i))
		sum += x
		sum2 += x * x
	}
	if sum2 <= 0 {
		return 0
	}
	return sum * sum / (float64(len(rates)) * sum2)
}

// RunRFTP executes one modeled RFTP transfer on the testbed and reports
// bandwidth and CPU.
func RunRFTP(tb Testbed, opt RFTPOptions) (RunResult, error) {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	sched := sim.New(opt.Seed)
	cfg := opt.Config
	if cfg.LoadProbe == nil && cfg.TransferMode == core.ModeHybrid {
		// The hybrid controller's CPU signal: the co-located job's share
		// of the source host, as an OS load probe would report it.
		busy := opt.SrcBusy
		cfg.LoadProbe = func() float64 { return busy }
	}
	sessions := max(opt.Sessions, 1)
	if sessions > 1 {
		if cfg.MaxSessions > 0 && cfg.MaxSessions < sessions {
			cfg.MaxSessions = sessions
		}
		if len(cfg.TenantWeights) == 0 {
			cfg.TenantWeights = opt.SessionWeights
		}
	}
	opt.Config = cfg
	p, err := newSimPair(simfabric.New(sched), nil, tb, "", opt)
	if err != nil {
		return RunResult{}, err
	}
	cfg = p.cfg
	source, sink, err := p.connect()
	if err != nil {
		return RunResult{}, err
	}
	if opt.Disk {
		arr := diskmodel.NewArray(sched, opt.DiskCfg)
		sink.NewWriter = func(core.SessionInfo) core.BlockSink {
			return diskSink{arr: arr, th: p.storer, mode: opt.DiskMode}
		}
	}
	if opt.Telemetry != nil {
		p.srcDev.Telemetry = telemetry.NewFabricMetrics(opt.Telemetry.Child("src_fabric"))
		p.dstDev.Telemetry = telemetry.NewFabricMetrics(opt.Telemetry.Child("dst_fabric"))
		source.AttachTelemetry(opt.Telemetry.Child("source"))
		sink.AttachTelemetry(opt.Telemetry.Child("sink"))
		if opt.SpanSample > 0 {
			source.AttachSpans(opt.Telemetry.Child("source"), opt.SpanSample)
			sink.AttachSpans(opt.Telemetry.Child("sink"), opt.SpanSample)
		}
	}

	// Per-tenant byte shares, proportional to scheduler weight, so a
	// fair schedule makes every tenant finish at the same time.
	weight := func(i int) int {
		if len(opt.SessionWeights) == 0 {
			return 1
		}
		if w := opt.SessionWeights[i%len(opt.SessionWeights)]; w > 0 {
			return w
		}
		return 1
	}
	perSess := make([]int64, sessions)
	var totW int64
	for i := range perSess {
		totW += int64(weight(i))
	}
	for i := range perSess {
		perSess[i] = opt.TotalBytes * int64(weight(i)) / totW
		if min := int64(cfg.PayloadCapacity()); perSess[i] < min {
			perSess[i] = min
		}
	}

	var srcErr error
	srcLeft, sinkLeft := sessions, sessions
	var startAt time.Duration
	ends := make([]time.Duration, sessions)
	bytesDone := make([]int64, sessions)
	sink.OnSessionDone = func(info core.SessionInfo, r core.TransferResult) { sinkLeft-- }
	// Multi-tenant runs gate every session's first load on an admission
	// barrier (open all flows, then measure — the standard fairness
	// methodology). Without it, early-admitted tenants run their whole
	// short job before the rest are even open, and the fairness index
	// measures the admission ramp instead of the credit scheduler.
	var gate *startGate
	if sessions > 1 && !opt.SrcDisk {
		gate = &startGate{}
		admitted := 0
		sink.OnSessionOpen = func(core.SessionInfo) {
			admitted++
			if admitted == sessions {
				p.srcLoop.Post(0, func() {
					startAt = sched.Now()
					gate.release()
				})
			}
		}
	}
	// The competing job: a fixed fraction of the source protocol
	// thread's quantum, interleaving with protocol work through the
	// thread's FIFO CPU model until the transfer drains. The loader
	// threads are spared — the job competes for the loop's core, not
	// the storage pipeline, so the contrast between the modes is the
	// data-path CPU they place on the squeezed thread.
	if opt.SrcBusy > 0 {
		const busyQuantum = 20 * time.Microsecond
		busyCost := time.Duration(opt.SrcBusy * float64(busyQuantum))
		var busyTick func()
		busyTick = func() {
			if srcLeft == 0 && sinkLeft == 0 {
				return
			}
			p.srcLoop.Post(busyCost, func() {})
			sched.After(busyQuantum, busyTick)
		}
		sched.After(busyQuantum, busyTick)
	}
	var negoErr error
	srcBusy0, dstBusy0 := p.srcHost.BusyTotal(), p.dstHost.BusyTotal()
	copied0 := verbs.CopiedBytes()
	if sessions > 1 {
		runtime.GC() // settle the heap so the per-tenant memory delta is retained growth
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var srcArr *diskmodel.Array
	if opt.SrcDisk {
		srcArr = diskmodel.NewArray(sched, opt.SrcDiskCfg)
	}
	source.Start(func(err error) {
		if err != nil {
			negoErr = err
			return
		}
		startAt = sched.Now()
		for i := 0; i < sessions; i++ {
			i := i
			var src core.BlockSource
			if srcArr != nil {
				src = &diskSource{arr: srcArr, th: p.loader, mode: opt.SrcDiskMode, total: perSess[i]}
			} else {
				src = p.memSource(perSess[i])
			}
			if gate != nil {
				src = &gatedSource{inner: src, gate: gate}
			}
			source.Transfer(src, perSess[i], func(r core.TransferResult) {
				if r.Err != nil && srcErr == nil {
					srcErr = r.Err
				}
				bytesDone[i], ends[i] = r.Bytes, sched.Now()
				srcLeft--
			})
		}
	})
	sched.RunAll()
	if sessions > 1 {
		runtime.GC()
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	copied1 := verbs.CopiedBytes()
	if negoErr != nil {
		return RunResult{}, negoErr
	}
	if srcErr != nil {
		return RunResult{}, srcErr
	}
	if srcLeft != 0 || sinkLeft != 0 {
		return RunResult{}, fmt.Errorf("bench: RFTP transfer did not complete (%d source / %d sink sessions outstanding)", srcLeft, sinkLeft)
	}
	st := source.Stats()
	sinkSt := sink.Stats()
	elapsed := st.Elapsed()
	res := RunResult{
		Tool:          "RFTP",
		BandwidthGbps: st.BandwidthGbps(),
		Bytes:         st.Bytes,
		Elapsed:       elapsed,
		Stalls:        st.CreditStalls,
		CtrlMsgs:      st.CtrlMsgs + sinkSt.CtrlMsgs,
		RNR:           p.srcDev.RNRNaks + p.dstDev.RNRNaks,
	}
	if sinkSt.GrantMsgs > 0 {
		res.GrantBatchMean = float64(sinkSt.CreditsGranted) / float64(sinkSt.GrantMsgs)
	}
	if st.Blocks > 0 {
		res.CtrlPerBlock = float64(res.CtrlMsgs) / float64(st.Blocks)
		res.AllocsPerBlock = float64(ms1.Mallocs-ms0.Mallocs) / float64(st.Blocks)
		res.CopiedPerBlock = float64(copied1-copied0) / float64(st.Blocks)
	}
	res.Sessions = sessions
	if sessions > 1 {
		rates := make([]float64, sessions)
		for i := range rates {
			if d := (ends[i] - startAt).Seconds(); d > 0 {
				rates[i] = float64(bytesDone[i]) * 8 / d / 1e9
			}
		}
		res.SessionGbps = rates
		res.JainIndex = jainIndex(rates, weight)
		if ms1.HeapAlloc > ms0.HeapAlloc {
			res.MemPerSession = float64(ms1.HeapAlloc-ms0.HeapAlloc) / float64(sessions)
		}
	}
	if elapsed > 0 {
		res.ClientCPU = 100 * float64(p.srcHost.BusyTotal()-srcBusy0) / float64(elapsed)
		res.ServerCPU = 100 * float64(p.dstHost.BusyTotal()-dstBusy0) / float64(elapsed)
	}
	if opt.Telemetry != nil && opt.SpanSample > 0 {
		if cause, ns, share := spans.TopStall(opt.Telemetry.Snapshot()); ns > 0 {
			res.TopStall = cause
			res.TopStallShare = share
		}
	}
	return res, nil
}

// diskSource adapts the RAID array model to the protocol's
// BlockSourceAt: each load is one spindle read, so the device only
// reaches aggregate bandwidth when the protocol keeps LoadDepth reads
// outstanding.
type diskSource struct {
	arr   *diskmodel.Array
	th    *hostmodel.Thread
	mode  diskmodel.Mode
	total int64

	cursor int64 // serial Load path only
}

// Load implements core.BlockSource (serial reads).
func (d *diskSource) Load(p []byte, capacity int, done func(int, bool, error)) {
	off := d.cursor
	d.cursor += int64(capacity)
	d.LoadAt(p, capacity, uint64(off), done)
}

// LoadAt implements core.BlockSourceAt.
func (d *diskSource) LoadAt(p []byte, capacity int, off uint64, done func(int, bool, error)) {
	remaining := d.total - int64(off)
	if remaining <= 0 {
		done(0, true, nil)
		return
	}
	n := int64(capacity)
	if n > remaining {
		n = remaining
	}
	eof := int64(off)+n >= d.total
	d.arr.Read(d.th, d.mode, int(n), func() { done(int(n), eof, nil) })
}

// diskSink adapts the RAID array model to the protocol's BlockSink.
type diskSink struct {
	arr  *diskmodel.Array
	th   *hostmodel.Thread
	mode diskmodel.Mode
}

// Store implements core.BlockSink.
func (d diskSink) Store(hdr wire.BlockHeader, payload []byte, modelLen int, done func(error)) {
	d.arr.Write(d.th, d.mode, modelLen, func() { done(nil) })
}

// GridFTPOptions configures one GridFTP baseline run.
type GridFTPOptions struct {
	Streams    int
	BlockSize  int
	TotalBytes int64
	Variant    tcpmodel.Variant // zero value: use the testbed's
	UseTBCC    bool             // take the variant from the testbed
	Disk       bool
	DiskMode   diskmodel.Mode
	Seed       int64
	// Telemetry, when non-nil, instruments the transfer (per-stream cwnd
	// and retransmit metrics, server backlog, bottleneck drops).
	Telemetry *telemetry.Registry
}

// runGridFTPThreads runs the multi-threaded-client counterfactual.
func runGridFTPThreads(tb Testbed, threads int, total int64) (RunResult, error) {
	sched := sim.New(1)
	path := tcpmodel.NewPath(sched, tcpmodel.PathConfig{
		RateBps: tb.Link.RateBps, RTT: tb.RTT, SegBytes: tb.TCPSegBytes,
	})
	client := hostmodel.NewHost(sched, "client", tb.CoresTotal, tb.Host)
	server := hostmodel.NewHost(sched, "server", tb.CoresTotal, tb.Host)
	tr := gridftp.New(sched, path, client, server, gridftp.Config{
		Streams: 8, BlockSize: 4 << 20, TotalBytes: total,
		Variant: tb.TCPVariant, ClientThreads: threads,
	})
	var got *gridftp.Stats
	tr.Start(func(s gridftp.Stats) { got = &s })
	sched.RunAll()
	if got == nil {
		return RunResult{}, fmt.Errorf("bench: threaded GridFTP transfer did not complete")
	}
	return RunResult{
		Tool:          "GridFTP",
		BandwidthGbps: got.BandwidthGbps(),
		Bytes:         got.Bytes,
		Elapsed:       got.Elapsed(),
		ClientCPU:     got.ClientCPU,
		ServerCPU:     got.ServerCPU,
		Retrans:       got.Retrans,
	}, nil
}

// RunGridFTP executes one modeled GridFTP transfer on the testbed.
func RunGridFTP(tb Testbed, opt GridFTPOptions) (RunResult, error) {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	sched := sim.New(opt.Seed)
	path := tcpmodel.NewPath(sched, tcpmodel.PathConfig{
		RateBps:  tb.Link.RateBps,
		RTT:      tb.RTT,
		SegBytes: tb.TCPSegBytes,
	})
	client := hostmodel.NewHost(sched, "client", tb.CoresTotal, tb.Host)
	server := hostmodel.NewHost(sched, "server", tb.CoresTotal, tb.Host)
	variant := opt.Variant
	if opt.UseTBCC {
		variant = tb.TCPVariant
	}
	cfg := gridftp.Config{
		Streams:    opt.Streams,
		BlockSize:  opt.BlockSize,
		TotalBytes: opt.TotalBytes,
		Variant:    variant,
	}
	if opt.Disk {
		cfg.Disk = diskmodel.NewArray(sched, diskmodel.DefaultArray())
		cfg.DiskMode = opt.DiskMode
	}
	tr := gridftp.New(sched, path, client, server, cfg)
	if opt.Telemetry != nil {
		tr.AttachTelemetry(opt.Telemetry)
	}
	var got *gridftp.Stats
	clientBusy0, serverBusy0 := client.BusyTotal(), server.BusyTotal()
	tr.Start(func(s gridftp.Stats) { got = &s })
	sched.RunAll()
	if got == nil {
		return RunResult{}, fmt.Errorf("bench: GridFTP transfer did not complete")
	}
	elapsed := got.Elapsed()
	res := RunResult{
		Tool:          "GridFTP",
		BandwidthGbps: got.BandwidthGbps(),
		Bytes:         got.Bytes,
		Elapsed:       elapsed,
		Retrans:       got.Retrans,
	}
	if elapsed > 0 {
		// Whole-host CPU, like the paper's nmon methodology.
		res.ClientCPU = 100 * float64(client.BusyTotal()-clientBusy0) / float64(elapsed)
		res.ServerCPU = 100 * float64(server.BusyTotal()-serverBusy0) / float64(elapsed)
	}
	return res, nil
}
