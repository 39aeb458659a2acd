package main

// The layers stage times calls into each layer's public functions, by
// itself and from outside: fabric operations in a closed loop at depth
// 16 on a bare queue pair, codecs and instruments in a plain loop. The
// numbers are a layer's cost when nothing else runs; what a layer costs
// inside a workload is the traced run's business.

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rftp/internal/bufpool"
	"rftp/internal/ringq"
	"rftp/internal/sim"
	"rftp/internal/spans"
	"rftp/internal/storage"
	"rftp/internal/telemetry"
	"rftp/internal/trace"
	"rftp/internal/verbs"
	"rftp/internal/wire"
)

// opCost is what one operation of a layer costs.
type opCost struct{ ns, allocs, copied float64 }

// costOf runs body, which performs n operations, and charges it wall
// time, heap allocations and CPU-copied bytes per operation.
func costOf(n int, body func() error) (opCost, error) {
	m0, t0 := readMeter(), time.Now()
	err := body()
	wall := time.Since(t0)
	m1 := readMeter()
	return opCost{
		ns:     float64(wall) / float64(n),
		allocs: float64(m1.mallocs-m0.mallocs) / float64(n),
		copied: float64(m1.copied-m0.copied) / float64(n),
	}, err
}

// loopCost times n calls of f on this goroutine.
func loopCost(n int, f func()) opCost {
	c, _ := costOf(n, func() error {
		for i := 0; i < n; i++ {
			f()
		}
		return nil
	})
	return c
}

// layerSet collects the stage's metrics.
type layerSet map[string]summary

func (ls layerSet) put(name, unit string, v float64) { ls[name] = single(unit, v) }

func (ls layerSet) cost(prefix string, c opCost, allocs, copied bool) {
	ls.put(prefix+"_ns", "ns", c.ns)
	if allocs {
		ls.put(prefix+"_allocs", "count", c.allocs)
	}
	if copied {
		ls.put(prefix+"_copied_b", "B", c.copied)
	}
}

// closedLoop keeps depth work requests in flight on the pair's
// initiator until n have completed. post builds and posts request i.
func (p *rawPair) closedLoop(n, depth int, post func(i int) error) error {
	var issued, completed int // initiator loop only
	var failed error
	done := make(chan struct{})
	finish := func() {
		if completed == issued && (issued == n || failed != nil) {
			close(done)
		}
	}
	next := func() {
		if failed == nil && issued < n {
			if err := post(issued); err != nil {
				failed = err
				return
			}
			issued++
		}
	}
	p.cqA.SetHandler(func(wc verbs.WC) {
		if wc.Op == verbs.OpRecv {
			return
		}
		if wc.Status != verbs.StatusSuccess && failed == nil {
			failed = fmt.Errorf("work request %d completed with %v", wc.WRID, wc.Status)
		}
		completed++
		next()
		finish()
	})
	p.loopA.Post(0, func() {
		for i := 0; i < depth; i++ {
			next()
		}
		finish()
	})
	p.drive(done)
	select {
	case <-done:
	default:
		return errors.New("fabric went idle before every work request completed")
	}
	return failed
}

const layerDepth = 16

// fabricOps times raw WRITE, READ and SEND on one fabric; div divides
// every operation count.
func fabricOps(kind fabricKind, div int, ops []fabricOp) (map[string]opCost, error) {
	p, err := newRawPair(kind, layerDepth)
	if err != nil {
		return nil, fmt.Errorf("%v pair: %w", kind, err)
	}
	defer p.close()
	const maxLen = 1 * mib
	src := make([]byte, maxLen)
	localMR, err := p.devA.RegisterMR(p.pdA, src, verbs.AccessLocalWrite)
	if err != nil {
		return nil, err
	}
	remoteMR, err := p.devB.RegisterMR(p.pdB, make([]byte, maxLen), verbs.AccessLocalWrite|verbs.AccessRemoteWrite|verbs.AccessRemoteRead)
	if err != nil {
		return nil, err
	}
	// SENDs consume receives at the responder; keep its queue full.
	recvMR, err := p.devB.RegisterMR(p.pdB, make([]byte, 4*layerDepth*64), verbs.AccessLocalWrite)
	if err != nil {
		return nil, err
	}
	p.cqB.SetHandler(func(wc verbs.WC) {
		if wc.Op == verbs.OpRecv && wc.Status == verbs.StatusSuccess {
			_ = p.b.PostRecv(&verbs.RecvWR{WRID: wc.WRID, MR: recvMR, Offset: int(wc.WRID) * 64, Len: 64}) // a failed repost shows as a stuck SEND
		}
	})
	for i := 0; i < 4*layerDepth; i++ {
		if err := p.b.PostRecv(&verbs.RecvWR{WRID: uint64(i), MR: recvMR, Offset: i * 64, Len: 64}); err != nil {
			return nil, err
		}
	}
	out := make(map[string]opCost)
	for _, op := range ops {
		op.n = max(op.n/div, 8*layerDepth)
		wr := verbs.SendWR{Op: op.op}
		switch op.op {
		case verbs.OpWrite:
			wr.Data, wr.Remote = src[:op.bytes], remoteMR.Remote(0)
		case verbs.OpSend:
			wr.Data = src[:op.bytes]
		case verbs.OpRead:
			wr.Remote, wr.Local, wr.ReadLen = remoteMR.Remote(0), localMR, op.bytes
		}
		run := func(n int) error {
			return p.closedLoop(n, layerDepth, func(i int) error {
				wr.WRID = uint64(i)
				return p.a.PostSend(&wr)
			})
		}
		if err := run(op.n / 8); err != nil { // warm the pools and the socket
			return nil, fmt.Errorf("%v %s: %w", kind, op.name, err)
		}
		c, err := costOf(op.n, func() error { return run(op.n) })
		if err != nil {
			return nil, fmt.Errorf("%v %s: %w", kind, op.name, err)
		}
		out[op.name] = c
	}
	return out, nil
}

type fabricOp struct {
	name  string
	op    verbs.Opcode
	bytes int
	n     int
}

// simWrites times modeled 4 MiB WRITEs over simfabric: wall time per
// simulated work request, the simulator's own cost.
func simWrites(n int) (opCost, error) {
	p, err := newRawPair(fabSim, 64)
	if err != nil {
		return opCost{}, err
	}
	defer p.close()
	const model, shadow = 4 * mib, wire.BlockHeaderSize
	remoteMR, err := p.devB.RegisterModelMR(p.pdB, model, shadow, verbs.AccessLocalWrite|verbs.AccessRemoteWrite)
	if err != nil {
		return opCost{}, err
	}
	hdr := make([]byte, shadow)
	wr := verbs.SendWR{Op: verbs.OpWrite, Data: hdr, ModelBytes: model - shadow, Remote: remoteMR.Remote(0)}
	return costOf(n, func() error {
		return p.closedLoop(n, 64, func(i int) error {
			wr.WRID = uint64(i)
			return p.a.PostSend(&wr)
		})
	})
}

// simEvents runs chains of self-reposting events through the bare
// scheduler and reports events per wall second and allocations per
// event.
func simEvents(n int) (eventsPerS, allocsPerEvent float64) {
	sched := sim.New(1)
	left := n
	var step func(any)
	step = func(arg any) {
		if left--; left > 0 {
			sched.PostArgAfter(time.Microsecond, step, arg)
		}
	}
	for i := 0; i < 64; i++ {
		sched.PostArgAfter(time.Duration(i)*time.Nanosecond, step, sched)
	}
	c, _ := costOf(n, func() error { sched.RunAll(); return nil })
	fired := float64(sched.Fired())
	return fired / (c.ns * float64(n) / 1e9), c.allocs * float64(n) / fired
}

// handoffs times n cross-goroutine deliveries. prepare is given the
// function the far side must call once per item and returns the
// function that sends one.
func handoffs(n int, prepare func(arrived func()) (send func())) opCost {
	var got atomic.Int64
	done := make(chan struct{})
	send := prepare(func() {
		if got.Add(1) == int64(n) {
			close(done)
		}
	})
	c, _ := costOf(n, func() error {
		for i := 0; i < n; i++ {
			send()
		}
		<-done
		return nil
	})
	return c
}

// storageOps times the storage layer on a real file in dir.
func storageOps(dir string, div int, ls layerSet) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, "layers-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	const blocks = 64
	n := max(256/div, 2*layerDepth)
	block := make([]byte, mib)
	for i := 0; i < blocks; i++ {
		if _, err := f.Write(block); err != nil {
			return err
		}
	}
	eng := storage.NewEngine(fileWorkers)
	defer eng.Close()
	// pipeline keeps layerDepth calls of op in flight until n are done.
	pipeline := func(n int, op func(i int, done func(error))) (opCost, error) {
		return costOf(n, func() error {
			var mu sync.Mutex
			issued, completed := 0, 0
			var failed error
			finished := make(chan struct{})
			var issue func()
			complete := func(err error) {
				mu.Lock()
				if err != nil && failed == nil {
					failed = err
				}
				completed++
				last := completed == n
				mu.Unlock()
				if last {
					close(finished)
					return
				}
				issue()
			}
			issue = func() {
				mu.Lock()
				i := issued
				issued++
				mu.Unlock()
				if i < n {
					op(i, complete)
				}
			}
			for i := 0; i < layerDepth; i++ {
				issue()
			}
			<-finished
			return failed
		})
	}
	bufs := make([][]byte, layerDepth)
	for i := range bufs {
		bufs[i] = make([]byte, mib)
	}
	src := storage.NewFileSource(f, blocks*mib, eng)
	c, err := pipeline(n, func(i int, done func(error)) {
		src.LoadAt(bufs[i%layerDepth], mib, uint64(i%blocks)*mib, func(_ int, _ bool, err error) { done(err) })
	})
	if err != nil {
		return err
	}
	ls.cost("storage.load_1m", c, false, false)
	sink := storage.NewFileSink(f, eng)
	c, err = pipeline(n, func(i int, done func(error)) {
		sink.Store(wire.BlockHeader{Offset: uint64(i%blocks) * mib}, bufs[i%layerDepth], mib, done)
	})
	if err != nil {
		return err
	}
	ls.cost("storage.store_1m", c, false, false)
	hop := storage.NewAsyncSource(noopSource{}, eng)
	c, err = pipeline(max(20000/div, 2*layerDepth), func(_ int, done func(error)) {
		hop.Load(nil, 0, func(int, bool, error) { done(nil) })
	})
	if err != nil {
		return err
	}
	ls.cost("storage.engine_hop", c, false, false)
	return nil
}

// noopSource completes every Load at once with nothing.
type noopSource struct{}

func (noopSource) Load(_ []byte, _ int, done func(int, bool, error)) { done(0, false, nil) }

// idleSessionBytes opens n sessions over a loopback connection, parks
// each in its first Load and reports the heap retained per session
// after a collection.
func idleSessionBytes(n int) (float64, error) {
	var mu sync.Mutex
	var waiting []func(int, bool, error) // the done callbacks of parked Loads
	admitted := make(chan struct{}, n)
	finished := make(chan error, n)
	src := parkSource(func(done func(int, bool, error)) {
		mu.Lock()
		waiting = append(waiting, done)
		mu.Unlock()
	})
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	st, err := newStack(stackConfig{fabric: fabNet, blockSize: 64 * kib, sessions: n}, sessionHooks{
		newWriter: func(uint32, int64) blockSink { admitted <- struct{}{}; return discardSink{} },
		sinkDone:  func(uint32, int64, int64, error) {},
	})
	if err != nil {
		return 0, err
	}
	defer st.close()
	before := heap()
	st.onSource(func() {
		for i := 0; i < n; i++ {
			st.transfer(src, kib, func(_, _ int64, err error) { finished <- err })
		}
	})
	for i := 0; i < n; i++ {
		select {
		case <-admitted:
		case <-time.After(segmentTimeout):
			return 0, fmt.Errorf("only %d of %d idle sessions were admitted", i, n)
		}
	}
	retained := float64(heap()-before) / float64(n)
	// Let every session finish with one small block so the connection
	// closes clean. Releasing a parked Load frees its pool block, which
	// parks the next session's Load in turn.
	for left := n; left > 0; {
		mu.Lock()
		batch := waiting
		waiting = nil
		mu.Unlock()
		for _, done := range batch {
			done(kib, true, nil) // what the bytes are does not matter here
		}
		for range batch {
			select {
			case err := <-finished:
				if err != nil {
					return 0, fmt.Errorf("idle session: %w", err)
				}
				left--
			case <-time.After(segmentTimeout):
				return 0, errors.New("idle sessions did not drain")
			}
		}
		if len(batch) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	return retained, nil
}

// parkSource hands every Load to a callback instead of completing it.
type parkSource func(done func(int, bool, error))

func (p parkSource) Load(_ []byte, _ int, done func(int, bool, error)) { p(done) }

// discardSink drops what it is given.
type discardSink struct{}

func (discardSink) Store(_ wire.BlockHeader, _ []byte, _ int, done func(error)) { done(nil) }

// runLayers runs the whole stage. outDir holds the storage layer's
// temporary file; div divides every iteration count.
func runLayers(outDir string, div int) (layerSet, error) {
	ls := layerSet{}
	loopCost := func(n int, f func()) opCost { return loopCost(max(n/div, 16), f) }
	handoffs := func(n int, prepare func(func()) func()) opCost { return handoffs(max(n/div, 16), prepare) }

	// wire: the control codec and the block header.
	ctrl := &wire.Control{Type: wire.MsgBlockComplete, Session: 7, Seq: 42, Addr: 1 << 40, RKey: 9, Length: 8160}
	grant := &wire.Control{Type: wire.MsgMRInfoResponse, Session: 7, Credits: make([]wire.Credit, 16)}
	for name, c := range map[string]*wire.Control{"wire.ctrl": ctrl, "wire.grant16": grant} {
		c := c
		enc, err := c.Encode(nil)
		if err != nil {
			return nil, err
		}
		ls.cost(name+"_encode", loopCost(200000, func() { enc, _ = c.Encode(enc[:0]) }), true, false)
		ls.cost(name+"_decode", loopCost(200000, func() { _, _ = wire.DecodeControl(enc) }), true, false)
	}
	hdr := make([]byte, wire.BlockHeaderSize)
	ls.cost("wire.blockhdr", loopCost(500000, func() {
		_ = wire.EncodeBlockHeader(hdr, wire.BlockHeader{Session: 7, Seq: 42, Offset: 1 << 30, PayloadLen: 8160})
		_, _ = wire.DecodeBlockHeader(hdr)
	}), false, false)

	// verbs: completion dispatch, registration, the pin-down cache.
	loop, stopLoop := newLoop("layers")
	cq := verbs.NewUpcallCQ(loop)
	ls.cost("verbs.cq_dispatch", handoffs(200000, func(arrived func()) func() {
		cq.SetHandler(func(verbs.WC) { arrived() })
		return func() { cq.Dispatch(0, verbs.WC{Op: verbs.OpWrite}) }
	}), false, false)
	ls.cost("chanfabric.loop_post", handoffs(200000, func(arrived func()) func() {
		return func() { loop.Post(0, arrived) }
	}), false, false)
	stopLoop()
	space, pd := verbs.NewAddressSpace(), &verbs.PD{ID: 1}
	region := make([]byte, mib)
	ls.cost("verbs.mr_register_1m", loopCost(20000, func() {
		if mr, err := space.Register(pd, region, verbs.AccessLocalWrite); err == nil {
			space.Deregister(mr)
		}
	}), false, false)

	// The real-byte fabrics, raw.
	chanOps, err := fabricOps(fabChan, div, []fabricOp{
		{"write_8k", verbs.OpWrite, 8 * kib, 100000},
		{"send_64", verbs.OpSend, 64, 100000},
	})
	if err != nil {
		return nil, err
	}
	ls.cost("chanfabric.write_8k", chanOps["write_8k"], true, false)
	ls.cost("chanfabric.send_64", chanOps["send_64"], false, false)
	netOps, err := fabricOps(fabNet, div, []fabricOp{
		{"write_8k", verbs.OpWrite, 8 * kib, 60000},
		{"write_32k", verbs.OpWrite, 32 * kib, 30000},
		{"write_1m", verbs.OpWrite, mib, 1500},
		{"read_64k", verbs.OpRead, 64 * kib, 15000},
		{"send_64", verbs.OpSend, 64, 60000},
	})
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"write_8k", "write_1m", "read_64k", "send_64"} {
		ls.cost("netfabric."+name, netOps[name], true, true)
	}
	// Not a named metric: only the raw floor core.added_ns_per_block is
	// taken against on the session workload.
	ls.put(rawWrite32k, "ns", netOps["write_32k"].ns)

	// The pin-down cache needs a device to register on.
	cachePair, err := newRawPair(fabChan, layerDepth)
	if err != nil {
		return nil, err
	}
	cache := verbs.NewMRCache(cachePair.devA, 4)
	ls.cost("verbs.mrcache_hit", loopCost(200000, func() {
		if mr, err := cache.Get(cachePair.pdA, 64*kib, 0, verbs.AccessLocalWrite, false); err == nil {
			cache.Put(mr, false)
		}
	}), false, false)
	cachePair.close()

	// The simulator and simfabric.
	events, allocs := simEvents(max(2000000/div, 1000))
	ls.put("sim.events_per_s", "1/s", events)
	ls.put("sim.allocs_per_event", "count", allocs)
	simCost, err := simWrites(max(100000/div, 1000))
	if err != nil {
		return nil, fmt.Errorf("simfabric writes: %w", err)
	}
	ls.cost("simfabric.write", simCost, true, false)

	if err := storageOps(tmpDir(outDir), div, ls); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}

	// The instruments themselves.
	reg := telemetry.NewRegistry("layers")
	counter, hist := reg.Counter("c"), reg.Histogram("h", telemetry.DurationBuckets()...)
	ls.cost("telemetry.counter_add", loopCost(2000000, func() { counter.Add(1) }), false, false)
	ls.cost("telemetry.hist_observe", loopCost(2000000, func() { hist.Observe(12345) }), false, false)
	var off *trace.Ring
	on := trace.NewRing(4096, nil)
	ev := trace.Event{Cat: trace.CatBlock, Name: "layers", V1: 1, V2: 2}
	ls.cost("trace.emit_off", loopCost(5000000, func() { off.Emit(ev) }), false, false)
	ls.cost("trace.emit_on", loopCost(1000000, func() { on.Emit(ev) }), false, false)
	lifecycle := [...]uint8{spans.StateLoading, spans.StateLoaded, spans.StateSending, spans.StateWaiting, spans.StateFree}
	for name, rec := range map[string]*spans.Recorder{
		"spans.transition_off":     nil,
		"spans.transition_sampled": spans.New(spans.KindSource, spans.Config{Sample: spanSample, Registry: reg.Child("spans")}),
	} {
		b := stubBlock{rec: rec, ref: spans.RefNone}
		c := loopCost(200000, func() {
			for _, to := range lifecycle {
				b.setState(to)
			}
		})
		c.ns /= float64(len(lifecycle))
		ls.cost(name, c, false, false)
	}
	var ring ringq.Ring[int]
	ls.cost("ringq.push_pop", loopCost(5000000, func() { ring.Push(1); ring.Pop() }), false, false)
	ls.cost("bufpool.get_put", loopCost(2000000, func() { bufpool.Put(bufpool.Get(8 * kib)) }), false, false)

	retained, err := idleSessionBytes(max(256/div, 2*ioDepth))
	if err != nil {
		return nil, err
	}
	ls.put("core.retained_b_per_idle_session", "B", retained)
	return ls, nil
}

// stubBlock is a block FSM with nothing in it but the span stamp: what
// core's block.setState pays for the recorder, and nothing else. The
// stamp sits in a setState because that is the one place the
// repository's spanstamp lint pass lets it be.
type stubBlock struct {
	rec   *spans.Recorder
	ref   spans.Ref
	state uint8
}

func (b *stubBlock) setState(to uint8) {
	b.ref = b.rec.Transition(b.ref, b.state, to)
	b.state = to
}

// rawWrite32k is the layers stage's internal key for the raw 32 KiB
// netfabric WRITE.
const rawWrite32k = "netfabric.write_32k_ns"
