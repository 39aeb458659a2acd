package main

// harness.go is the only file of the benchmark that imports core, bench
// and the fabric packages, and it calls them the way cmd/rftp,
// cmd/rftpd and examples/quickstart do: a refactor that keeps those
// callers compiling keeps the benchmark compiling.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"rftp/internal/bench"
	"rftp/internal/core"
	"rftp/internal/fabric/chanfabric"
	"rftp/internal/fabric/netfabric"
	"rftp/internal/fabric/simfabric"
	"rftp/internal/hostmodel"
	"rftp/internal/sim"
	"rftp/internal/telemetry"
	"rftp/internal/trace"
	"rftp/internal/verbs"
)

// Fixed protocol shape of every byte workload: core.DefaultConfig()
// plus BlockSize, Channels, IODepth and TransferMode only; one TCP
// connection, one reactor per side.
const (
	dataChannels = 2
	ioDepth      = 16
	spanSample   = 16 // as `rftp -stats -span-sample 16`
)

type fabricKind int

const (
	fabNet  fabricKind = iota // netfabric over the host's loopback interface
	fabChan                   // chanfabric, in-process
	fabSim                    // simfabric, virtual time, modeled payload
)

func (f fabricKind) String() string {
	return [...]string{"netfabric", "chanfabric", "simfabric"}[f]
}

// payloadCapacity is the user bytes a block of the given size carries.
func payloadCapacity(blockSize int) int {
	cfg := core.DefaultConfig()
	cfg.BlockSize = blockSize
	return cfg.PayloadCapacity()
}

// stackConfig is what a workload varies about a connection.
type stackConfig struct {
	fabric    fabricKind
	blockSize int
	pull      bool
	// sessions sizes the control receive rings for that many concurrent
	// tenants (1 = classic single-session layout).
	sessions int
	// traced attaches the repository's own instrumentation the way
	// `rftp -stats -span-sample 16 -trace` and `rftpd -stats -trace` do.
	traced bool
}

// sessionHooks are the sink-side callbacks of a stack. They run on the
// sink's loop and are fixed for the stack's lifetime.
type sessionHooks struct {
	newWriter func(id uint32, total int64) blockSink
	sinkDone  func(id uint32, bytes, blocks int64, err error)
}

// counters is the subset of core.Stats the benchmark reports.
type counters struct {
	blocks, ctrlMsgs, creditsGranted, grantMsgs, creditStalls, retries int64
}

func countersOf(s core.Stats) counters {
	return counters{s.Blocks, s.CtrlMsgs, s.CreditsGranted, s.GrantMsgs, s.CreditStalls, s.Retries}
}

// stack is one negotiated source/sink connection over a real-byte
// fabric, both ends in this process.
type stack struct {
	srcLoop, dstLoop *chanfabric.Loop
	source           *core.Source
	sink             *core.Sink
	reg              *telemetry.Registry // nil unless traced
	teardown         []func()            // run last to first
	closing          atomic.Bool
	connErr          atomic.Value // first connection-level error
}

// newStack builds the fabric, both endpoints, source and sink, and
// negotiates. On error everything already built is torn down.
func newStack(sc stackConfig, hooks sessionHooks) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	cfg := core.DefaultConfig()
	cfg.BlockSize = sc.blockSize
	cfg.Channels = dataChannels
	cfg.IODepth = ioDepth
	if sc.pull {
		cfg.TransferMode = core.ModePull
	}

	var srcDev, dstDev verbs.Device
	var bind func(src, dst *core.Endpoint) error
	switch sc.fabric {
	case fabNet:
		ln, err := netfabric.Listen("127.0.0.1:0")
		if err != nil {
			return st, fmt.Errorf("listen: %w", err)
		}
		st.teardown = append(st.teardown, func() { ln.Close() })
		type accepted struct {
			dev *netfabric.Device
			err error
		}
		acc := make(chan accepted, 1)
		go func() {
			dev, err := ln.Accept()
			acc <- accepted{dev, err}
		}()
		client, err := netfabric.Dial(ln.Addr().String())
		if err != nil {
			return st, fmt.Errorf("dial: %w", err)
		}
		st.teardown = append(st.teardown, func() { client.Close() })
		a := <-acc
		if a.err != nil {
			return st, fmt.Errorf("accept: %w", a.err)
		}
		server := a.dev
		st.teardown = append(st.teardown, func() { server.Close() })
		if sc.traced {
			st.reg = telemetry.NewRegistry("bench")
			client.Telemetry = telemetry.NewFabricMetrics(st.reg.Child("source").Child("fabric"))
			server.Telemetry = telemetry.NewFabricMetrics(st.reg.Child("sink").Child("fabric"))
			// Telemetry is a plain field and each device's reader
			// goroutine is already running. The reader adds to RxBytes
			// atomically right before it reads Telemetry, so an atomic
			// operation on RxBytes here orders the two writes above
			// before that read.
			client.RxBytes.Add(0)
			server.RxBytes.Add(0)
		}
		srcDev, dstDev = client, server
		bind = func(src, dst *core.Endpoint) error {
			// The sink binds first: its callbacks are installed, and
			// frames that arrive early are parked until then anyway.
			for _, side := range []struct {
				dev *netfabric.Device
				ep  *core.Endpoint
			}{{server, dst}, {client, src}} {
				if err := side.dev.BindQP(side.ep.Ctrl, 0); err != nil {
					return err
				}
				for i, qp := range side.ep.Data {
					if err := side.dev.BindQP(qp, uint32(i+1)); err != nil {
						return err
					}
				}
			}
			return nil
		}
	case fabChan:
		fab := chanfabric.New()
		a, b := fab.NewDevice("src"), fab.NewDevice("dst")
		fab.Connect(a, b, chanfabric.Shaping{})
		if sc.traced {
			st.reg = telemetry.NewRegistry("bench")
			a.Telemetry = telemetry.NewFabricMetrics(st.reg.Child("source").Child("fabric"))
			b.Telemetry = telemetry.NewFabricMetrics(st.reg.Child("sink").Child("fabric"))
		}
		srcDev, dstDev = a, b
		bind = func(src, dst *core.Endpoint) error {
			if err := fab.ConnectQPs(src.Ctrl, dst.Ctrl); err != nil {
				return err
			}
			for i := range src.Data {
				if err := fab.ConnectQPs(src.Data[i], dst.Data[i]); err != nil {
					return err
				}
			}
			return nil
		}
	default:
		return st, fmt.Errorf("no real-byte stack over %v", sc.fabric)
	}

	st.srcLoop = chanfabric.NewLoop("bench-src")
	st.dstLoop = chanfabric.NewLoop("bench-dst")
	st.teardown = append(st.teardown, st.srcLoop.Stop, st.dstLoop.Stop)

	srcEP, err := core.NewServiceEndpoint(srcDev, []verbs.Loop{st.srcLoop}, cfg.Channels, cfg.IODepth, sc.sessions)
	if err != nil {
		return st, err
	}
	dstEP, err := core.NewServiceEndpoint(dstDev, []verbs.Loop{st.dstLoop}, cfg.Channels, cfg.IODepth, sc.sessions)
	if err != nil {
		return st, err
	}
	st.sink, err = core.NewSink(dstEP, cfg)
	if err != nil {
		return st, err
	}
	st.sink.NewWriter = func(info core.SessionInfo) core.BlockSink {
		return hooks.newWriter(info.ID, info.Total)
	}
	st.sink.OnSessionDone = func(info core.SessionInfo, r core.TransferResult) {
		hooks.sinkDone(info.ID, r.Bytes, r.Blocks, r.Err)
	}
	st.sink.OnError = st.noteConnErr
	st.source, err = core.NewSource(srcEP, cfg)
	if err != nil {
		return st, err
	}
	st.source.OnError = st.noteConnErr
	if sc.traced {
		st.source.AttachTelemetry(st.reg.Child("source"))
		st.source.AttachSpans(st.reg.Child("source"), spanSample)
		st.source.Trace = trace.NewRing(4096, nil)
		st.sink.AttachTelemetry(st.reg.Child("sink"))
		st.sink.AttachSpans(st.reg.Child("sink"), spanSample)
		st.sink.Trace = trace.NewRing(1<<16, nil)
	}
	if err := bind(srcEP, dstEP); err != nil {
		return st, fmt.Errorf("bind: %w", err)
	}
	ready := make(chan error, 1)
	st.srcLoop.Post(0, func() {
		st.source.Start(func(err error) { ready <- err })
	})
	select {
	case err := <-ready:
		if err != nil {
			return st, fmt.Errorf("negotiation: %w", err)
		}
	case <-time.After(10 * time.Second):
		return st, errors.New("negotiation timed out")
	}
	return st, nil
}

func (st *stack) noteConnErr(err error) {
	if !st.closing.Load() {
		st.connErr.CompareAndSwap(nil, err)
	}
}

// err returns the first connection-level failure seen before close.
func (st *stack) err() error {
	if e, _ := st.connErr.Load().(error); e != nil {
		return e
	}
	return nil
}

// onSource runs fn on the source's loop. Transfers are started from
// there, and a source onDone callback already is there.
func (st *stack) onSource(fn func()) { st.srcLoop.Post(0, fn) }

// transfer queues one dataset. It must run on the source's loop.
func (st *stack) transfer(src blockSource, total int64, onDone func(bytes, blocks int64, err error)) {
	st.source.Transfer(src, total, func(r core.TransferResult) { onDone(r.Bytes, r.Blocks, r.Err) })
}

// stats reads both ends' counters, each on its own loop.
func (st *stack) stats() (source, sink counters) {
	sc, kc := make(chan counters, 1), make(chan counters, 1)
	st.srcLoop.Post(0, func() { sc <- countersOf(st.source.Stats()) })
	st.dstLoop.Post(0, func() { kc <- countersOf(st.sink.Stats()) })
	return <-sc, <-kc
}

// close stops the protocol on both loops, then the devices, loops and
// listener. Safe on a partly built stack.
func (st *stack) close() {
	st.closing.Store(true)
	syncPost := func(loop *chanfabric.Loop, fn func()) {
		done := make(chan struct{})
		loop.Post(0, func() { fn(); close(done) })
		<-done
	}
	if st.source != nil {
		syncPost(st.srcLoop, st.source.Close)
	}
	if st.sink != nil {
		syncPost(st.dstLoop, st.sink.Close)
	}
	for i := len(st.teardown) - 1; i >= 0; i-- {
		st.teardown[i]()
	}
	st.teardown = nil
}

// snapshot reads the traced run's registry back (nil when untraced).
func (st *stack) snapshot() *telemetry.Snapshot { return st.reg.Snapshot() }

// simResult is one modeled transfer over simfabric.
type simResult struct {
	blocks, bytes  int64
	virtualGbps    float64
	ctrlPerBlock   float64
	grantBatchMean float64
	creditStalls   int64
	snap           *telemetry.Snapshot // nil unless traced
}

// runSim moves total modeled bytes over the paper's RoCE WAN testbed in
// virtual time: bench.RunRFTP, the entry point the figure generators
// use, with the same config shape as BenchmarkPaperScale900GB.
func runSim(blockSize, depth int, total int64, traced bool) (simResult, error) {
	cfg := core.DefaultConfig()
	cfg.BlockSize = blockSize
	cfg.IODepth = depth
	opt := bench.RFTPOptions{Config: cfg, TotalBytes: total}
	var reg *telemetry.Registry
	if traced {
		reg = telemetry.NewRegistry("bench")
		opt.Telemetry, opt.SpanSample = reg, spanSample
	}
	res, err := bench.RunRFTP(bench.RoCEWAN(), opt)
	if err != nil {
		return simResult{}, err
	}
	capacity := int64(cfg.PayloadCapacity())
	return simResult{
		blocks:         (res.Bytes + capacity - 1) / capacity,
		bytes:          res.Bytes,
		virtualGbps:    res.BandwidthGbps,
		ctrlPerBlock:   res.CtrlPerBlock,
		grantBatchMean: res.GrantBatchMean,
		creditStalls:   res.Stalls,
		snap:           reg.Snapshot(),
	}, nil
}

// rawPair is two connected queue pairs on one fabric with nothing of
// core above them: what the layers stage posts work requests on to time
// a fabric by itself. Completions of a run on the initiator's CQ.
type rawPair struct {
	devA, devB verbs.Device
	pdA, pdB   *verbs.PD
	cqA, cqB   *verbs.UpcallCQ
	a, b       verbs.QP
	loopA      verbs.Loop
	// drive runs the fabric until done is closed: a wait on real-byte
	// fabrics, the scheduler's event loop itself on simfabric.
	drive func(done <-chan struct{})
	close func()
}

// newRawPair connects one queue pair of the given send depth across the
// fabric. On simfabric the link is the RoCE WAN testbed's.
func newRawPair(kind fabricKind, depth int) (*rawPair, error) {
	p := &rawPair{}
	var teardown []func()
	p.close = func() {
		p.a.Close()
		p.b.Close()
		for i := len(teardown) - 1; i >= 0; i-- {
			teardown[i]()
		}
	}
	var loopB verbs.Loop
	realLoops := func() {
		la, lb := chanfabric.NewLoop("raw-a"), chanfabric.NewLoop("raw-b")
		teardown = append(teardown, la.Stop, lb.Stop)
		p.loopA, loopB = la, lb
		p.drive = func(done <-chan struct{}) { <-done }
	}
	var connect func() error
	switch kind {
	case fabNet:
		ln, err := netfabric.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		acc := make(chan *netfabric.Device, 1)
		go func() {
			dev, _ := ln.Accept()
			acc <- dev
		}()
		client, err := netfabric.Dial(ln.Addr().String())
		if err != nil {
			return nil, err
		}
		server := <-acc
		if server == nil {
			client.Close()
			return nil, errors.New("accept failed")
		}
		teardown = append(teardown, func() { client.Close() }, func() { server.Close() })
		realLoops()
		p.devA, p.devB = client, server
		connect = func() error {
			if err := server.BindQP(p.b, 0); err != nil {
				return err
			}
			return client.BindQP(p.a, 0)
		}
	case fabChan:
		fab := chanfabric.New()
		a, b := fab.NewDevice("a"), fab.NewDevice("b")
		fab.Connect(a, b, chanfabric.Shaping{})
		realLoops()
		p.devA, p.devB = a, b
		connect = func() error { return fab.ConnectQPs(p.a, p.b) }
	case fabSim:
		tb := bench.RoCEWAN()
		sched := sim.New(1)
		fab := simfabric.New(sched)
		ha := hostmodel.NewHost(sched, "a", tb.CoresTotal, tb.Host)
		hb := hostmodel.NewHost(sched, "b", tb.CoresTotal, tb.Host)
		a, b := fab.NewDevice("hca0", ha, tb.NIC), fab.NewDevice("hca1", hb, tb.NIC)
		fab.Connect(a, b, tb.Link)
		p.loopA, loopB = ha.NewThread("raw-a"), hb.NewThread("raw-b")
		p.devA, p.devB = a, b
		p.drive = func(<-chan struct{}) { sched.RunAll() }
		connect = func() error { return fab.ConnectQPs(p.a, p.b) }
	}
	p.pdA, p.pdB = p.devA.AllocPD(), p.devB.AllocPD()
	p.cqA, p.cqB = verbs.NewUpcallCQ(p.loopA), verbs.NewUpcallCQ(loopB)
	p.cqA.SetHandler(func(verbs.WC) {})
	p.cqB.SetHandler(func(verbs.WC) {})
	var err error
	qpc := verbs.QPConfig{MaxSend: depth, MaxRecv: 4 * depth, MaxRDAtomic: depth}
	qpc.PD, qpc.SendCQ, qpc.RecvCQ = p.pdA, p.cqA, p.cqA
	if p.a, err = p.devA.CreateQP(qpc); err == nil {
		qpc.PD, qpc.SendCQ, qpc.RecvCQ = p.pdB, p.cqB, p.cqB
		p.b, err = p.devB.CreateQP(qpc)
	}
	if err == nil {
		err = connect()
	}
	if err != nil {
		for i := len(teardown) - 1; i >= 0; i-- {
			teardown[i]()
		}
		return nil, err
	}
	return p, nil
}

// newLoop starts a real-time event loop for the layers stage; stop it
// when done.
func newLoop(name string) (loop verbs.Loop, stop func()) {
	l := chanfabric.NewLoop(name)
	return l, l.Stop
}
