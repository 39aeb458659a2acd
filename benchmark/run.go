package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"rftp/internal/storage"
	"rftp/internal/verbs"
	"rftp/internal/wire"
)

// options are a run's parameters beyond the workload.
type options struct {
	seed    int64
	seconds float64
	outDir  string
	// setupReps is the fewest times a run sets a connection up to take
	// the median set-up time; the first is the one measured on. A
	// set-up that takes a millisecond needs more samples for a steady
	// median: set-ups repeat until they have taken setupTime together,
	// up to maxSetupReps of them.
	setupReps int
	setupTime time.Duration
	// layerDiv divides the layers stage's iteration counts; tests use
	// it to keep the stage short.
	layerDiv int
	// wrapSink, when set, stands between the protocol and the harness
	// sink; tests use it to corrupt what the sink is given.
	wrapSink func(blockSink) blockSink
}

func defaultOptions() options {
	return options{seed: 1, seconds: 15, outDir: filepath.Join("benchmark", "out"), setupReps: 15, setupTime: 300 * time.Millisecond, layerDiv: 1}
}

// segmentTimeout bounds one segment; a stuck transfer fails the run
// rather than hanging it.
const segmentTimeout = 90 * time.Second

// fileWorkers is the storage engine's worker count per side on the
// file workload.
const fileWorkers = 2

// segment is what one timed segment measured.
type segment struct {
	wall     time.Duration
	cpu      time.Duration // process user+sys over the segment
	mallocs  uint64
	copied   uint64
	bytes    int64
	blocks   int64
	sessions int64
}

func (s segment) nsPerBlock() float64 { return float64(s.wall) / float64(s.blocks) }

// meter reads the process-wide counters a segment is charged with.
type meter struct {
	cpu     time.Duration
	mallocs uint64
	copied  uint64
}

func readMeter() meter {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		copied:  verbs.CopiedBytes(),
	}
}

// peakRSSMiB is the process's high-water resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runner drives one workload: it owns the inputs, the connection under
// test and the bookkeeping that checks every session's output.
type runner struct {
	w      workload
	opt    options
	pay    *payload
	sizes  []int64 // payload bytes of each session of a segment
	tr     *tracer // nil on untraced runs
	traced bool
	st     *stack

	// File workload: input and output files and the two engines.
	in, out    *os.File
	cmpA, cmpB []byte // verifyFiles' read buffers
	srcEng     *storage.Engine
	dstEng     *storage.Engine

	// Source-loop state of the segment in progress.
	want, issued, completed int
	nextSess                uint32
	srcBlocks, srcBytes     int64
	latMs                   []float64 // every session's latency, all timed segments
	recordLat               bool
	calls                   map[uint32]int64 // traced: Transfer call time by harness session
	srcDone                 chan struct{}

	// Sink-loop state. sinkLeft and fileSess cross from the source's
	// side, so they are atomic; sinkDone is signalled when sinkLeft
	// reaches zero.
	sinks      map[uint32]*memSink
	sinkLeft   atomic.Int64
	fileSess   atomic.Uint32 // harness number of the file session in progress
	sinkBlocks int64
	sinkDone   chan struct{}

	trWall     time.Duration // wall time of every segment the tracer covers
	firstTimed time.Duration // process start to the first timed segment
	attempted  int64         // blocks, or sessions on the session workload
	simLast    simResult     // the latest modeled transfer
}

func newRunner(w workload, opt options) (*runner, error) {
	capacity := payloadCapacity(w.blockSize)
	seed := opt.seed
	r := &runner{w: w, opt: opt, nextSess: 1,
		sinks: make(map[uint32]*memSink), calls: make(map[uint32]int64),
		sinkDone: make(chan struct{}, 1)}
	if w.fabric == fabSim {
		r.pay = newPayload(seed, 0) // modeled payload: nothing to generate, failures still counted here
		return r, nil
	}
	r.pay = newPayload(seed, capacity)
	if w.segSessions > 1 {
		// Room for every latency sample of a run up front: growing the
		// slice as it fills would put its garbage into peak RSS.
		r.latMs = make([]float64, 0, 1<<20)
	}
	r.sizes = make([]int64, w.segSessions)
	rng := rand.New(rand.NewSource(seed))
	for i := range r.sizes {
		r.sizes[i] = w.segBlocks * int64(capacity)
		if w.varySizes {
			r.sizes[i] = kib + rng.Int63n(int64(capacity)-kib+1)
		}
	}
	if w.file {
		if err := r.makeFiles(); err != nil {
			r.cleanup()
			return nil, err
		}
	}
	return r, nil
}

// makeFiles writes the input file: the template repeated, each block
// stamped with its offset so no two blocks are alike.
func (r *runner) makeFiles() error {
	dir := tmpDir(r.opt.outDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var err error
	if r.in, err = os.CreateTemp(dir, "file-in-*"); err != nil {
		return err
	}
	if r.out, err = os.CreateTemp(dir, "file-out-*"); err != nil {
		return err
	}
	block := append([]byte(nil), r.pay.template...)
	for i := int64(0); i < r.w.segBlocks; i++ {
		off := uint64(i) * uint64(len(block))
		binary.BigEndian.PutUint64(block, r.pay.headStamp(0, off))
		if _, err := r.in.Write(block); err != nil {
			return fmt.Errorf("writing input file: %w", err)
		}
	}
	return nil
}

// cleanup releases everything the runner holds, on every exit path.
func (r *runner) cleanup() {
	r.closeStack()
	for _, f := range []*os.File{r.in, r.out} {
		if f != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}
	r.in, r.out = nil, nil
}

func (r *runner) closeStack() {
	if r.st != nil {
		r.st.close()
		r.st = nil
	}
	for _, e := range []*storage.Engine{r.srcEng, r.dstEng} {
		if e != nil {
			e.Close()
		}
	}
	r.srcEng, r.dstEng = nil, nil
}

// open builds a fresh connection (closing any earlier one) and moves a
// first short segment through it, so that lazily built state exists
// before anything is timed. Its duration is one set-up sample.
func (r *runner) open(traced bool) (time.Duration, error) {
	r.closeStack()
	runtime.GC() // the previous connection's pools are garbage; keep peak RSS to one connection's worth
	start := time.Now()
	r.traced = traced
	if r.w.fabric == fabSim {
		_, err := r.runSim(2 * int64(r.w.simDepth))
		return time.Since(start), err
	}
	if r.w.file {
		r.srcEng, r.dstEng = storage.NewEngine(fileWorkers), storage.NewEngine(fileWorkers)
		// A fresh connection writes a fresh output file; the warm-up
		// segment is the one that pays for its pages.
		if err := r.out.Truncate(0); err != nil {
			return 0, err
		}
	}
	r.tr, r.trWall = nil, 0
	if traced {
		r.tr = newTracer()
	}
	var err error
	r.st, err = newStack(stackConfig{
		fabric: r.w.fabric, blockSize: r.w.blockSize, pull: r.w.pull,
		sessions: r.w.inFlight, traced: traced,
	}, sessionHooks{newWriter: r.newWriter, sinkDone: r.onSinkDone})
	if err != nil {
		return 0, err
	}
	if _, err := r.run(r.shortSizes()); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// shortSizes is the first segment of a fresh connection: one pool's
// worth of blocks.
func (r *runner) shortSizes() []int64 {
	if r.w.segSessions > 1 {
		return r.sizes[:2*r.w.inFlight]
	}
	return []int64{min(2*ioDepth, r.w.segBlocks) * int64(len(r.pay.template))}
}

// segment runs one full segment of the workload.
func (r *runner) segment() (segment, error) {
	if r.w.fabric == fabSim {
		return r.runSim(r.w.segBlocks)
	}
	return r.run(r.sizes)
}

// run moves the sessions and, on the file workload, compares the
// output file with the input outside the timed region.
func (r *runner) run(sizes []int64) (segment, error) {
	seg, err := r.runSessions(sizes)
	if err == nil && r.w.file {
		err = r.verifyFiles(sizes[0])
	}
	return seg, err
}

// runSim runs one modeled transfer of the given block count.
func (r *runner) runSim(blocks int64) (segment, error) {
	total := blocks * int64(payloadCapacity(r.w.blockSize))
	m0, t0 := readMeter(), time.Now()
	res, err := runSim(r.w.blockSize, r.w.simDepth, total, r.traced)
	wall := time.Since(t0)
	m1 := readMeter()
	if err != nil {
		return segment{}, err
	}
	r.attempted += blocks
	if res.bytes != total || res.blocks != blocks {
		return segment{}, fmt.Errorf("simulator moved %d bytes in %d blocks, want %d in %d", res.bytes, res.blocks, total, blocks)
	}
	// The virtual-time rate is a check, never a metric: the model must
	// still fill the 10 Gbps WAN on a transfer long enough to ramp.
	if blocks >= 10000 && res.virtualGbps < 9.0 {
		return segment{}, fmt.Errorf("simulated goodput %.2f Gbps, want >= 9.0", res.virtualGbps)
	}
	r.simLast = res
	return segment{wall: wall, cpu: m1.cpu - m0.cpu, mallocs: m1.mallocs - m0.mallocs,
		copied: m1.copied - m0.copied, bytes: res.bytes, blocks: res.blocks, sessions: 1}, nil
}

// runSessions moves one session per entry of sizes through the
// connection, inFlight at a time in a closed loop, and waits until the
// source and the sink have both finished all of them.
func (r *runner) runSessions(sizes []int64) (segment, error) {
	n := len(sizes)
	r.want, r.issued, r.completed = n, 0, 0
	r.srcBlocks, r.srcBytes = 0, 0
	r.srcDone = make(chan struct{})
	r.sinkLeft.Store(int64(n))
	sinkBlocks0 := r.sinkBlocks
	m0, t0 := readMeter(), time.Now()
	r.st.onSource(func() {
		for i := 0; i < r.w.inFlight && i < n; i++ {
			r.issue(sizes)
		}
	})
	timeout := time.After(segmentTimeout)
	for _, ch := range []chan struct{}{r.srcDone, r.sinkDone} {
		select {
		case <-ch:
		case <-timeout:
			return segment{}, fmt.Errorf("segment of %d sessions did not finish in %v (connection error: %v)", n, segmentTimeout, r.st.err())
		}
	}
	wall := time.Since(t0)
	m1 := readMeter()
	r.trWall += wall
	if err := r.st.err(); err != nil {
		return segment{}, fmt.Errorf("connection failed: %w", err)
	}
	var wantBytes int64
	for _, s := range sizes {
		wantBytes += s
	}
	stored := r.sinkBlocks - sinkBlocks0
	if r.w.file {
		stored = r.srcBlocks // whole files are compared instead
	}
	if r.srcBytes != wantBytes || r.srcBlocks != stored {
		r.pay.fail("source sent %d bytes in %d blocks; want %d bytes, sink stored %d blocks", r.srcBytes, r.srcBlocks, wantBytes, stored)
	}
	if r.w.segSessions > 1 {
		r.attempted += int64(n)
	} else {
		r.attempted += r.srcBlocks
	}
	return segment{wall: wall, cpu: m1.cpu - m0.cpu, mallocs: m1.mallocs - m0.mallocs,
		copied: m1.copied - m0.copied, bytes: r.srcBytes, blocks: r.srcBlocks, sessions: int64(n)}, nil
}

// issue starts the next session. Source loop only.
func (r *runner) issue(sizes []int64) {
	size := sizes[r.issued]
	r.issued++
	sess := r.nextSess
	r.nextSess++
	var src blockSource
	if r.w.file {
		r.fileSess.Store(sess)
		fs := storage.NewFileSource(r.in, size, r.srcEng)
		src = fs
		if r.tr != nil {
			src = &tracedFileSource{fs, r.tr, sess}
		}
	} else {
		src = &memSource{p: r.pay, tr: r.tr, sess: sess, total: size}
	}
	call := time.Now()
	if r.tr != nil {
		r.calls[sess] = r.tr.now()
	}
	r.st.transfer(src, size, func(bytes, blocks int64, err error) {
		if r.recordLat {
			r.latMs = append(r.latMs, float64(time.Since(call))/float64(time.Millisecond))
		}
		if r.tr != nil {
			r.tr.session(sessionSpan{sess: sess, call: r.calls[sess], srcDone: r.tr.now()})
			delete(r.calls, sess)
		}
		if err != nil || bytes != size {
			r.pay.fail("session %d: source finished with %d of %d bytes: %v", sess, bytes, size, err)
		}
		r.srcBlocks += blocks
		r.srcBytes += bytes
		if r.issued < r.want {
			r.issue(sizes)
		}
		if r.completed++; r.completed == r.want {
			close(r.srcDone)
		}
	})
}

// newWriter is the sink's NewWriter hook. Sink loop only.
func (r *runner) newWriter(id uint32, total int64) blockSink {
	if r.w.file {
		fs := storage.NewFileSink(r.out, r.dstEng)
		if r.tr != nil {
			return &tracedFileSink{fs, r.tr, r.fileSess.Load()}
		}
		return fs
	}
	k := newMemSink(r.pay, r.tr, total)
	r.sinks[id] = k
	if r.opt.wrapSink != nil {
		return r.opt.wrapSink(k)
	}
	return k
}

// onSinkDone is the sink's OnSessionDone hook. Sink loop only.
func (r *runner) onSinkDone(id uint32, bytes, blocks int64, err error) {
	if k := r.sinks[id]; k != nil {
		delete(r.sinks, id)
		r.sinkBlocks += k.finish(bytes, blocks, err)
		if r.tr != nil {
			r.tr.session(sessionSpan{sess: k.sess, sinkDone: r.tr.now()})
		}
	} else if err != nil {
		r.pay.fail("sink session %d failed: %v", id, err)
	} else if r.tr != nil {
		r.tr.session(sessionSpan{sess: r.fileSess.Load(), sinkDone: r.tr.now()})
	}
	if r.sinkLeft.Add(-1) == 0 {
		r.sinkDone <- struct{}{}
	}
}

// verifyFiles checks the output file against the input byte for byte,
// counting one failure per differing block, and spoils the output so
// the next segment cannot pass on this one's result.
func (r *runner) verifyFiles(size int64) error {
	const chunk = 4 * mib
	if r.cmpA == nil { // kept across segments: fresh ones each time would be garbage in peak RSS
		r.cmpA, r.cmpB = make([]byte, chunk), make([]byte, chunk)
	}
	a, b := r.cmpA, r.cmpB
	blockLen := int64(len(r.pay.template))
	bad := map[int64]bool{}
	for off := int64(0); off < size; off += chunk {
		n := min(int64(chunk), size-off)
		if _, err := r.in.ReadAt(a[:n], off); err != nil {
			return fmt.Errorf("reading input file: %w", err)
		}
		if _, err := r.out.ReadAt(b[:n], off); err != nil && !errors.Is(err, io.EOF) {
			return fmt.Errorf("reading output file: %w", err)
		}
		if bytes.Equal(a[:n], b[:n]) {
			continue
		}
		for i := int64(0); i < n; i++ {
			if a[i] != b[i] {
				bad[(off+i)/blockLen] = true
			}
		}
	}
	for blk := range bad {
		r.pay.fail("file block %d differs from the input", blk)
	}
	if st, err := r.out.Stat(); err != nil || st.Size() != size {
		r.pay.fail("output file is %d bytes, want %d (%v)", st.Size(), size, err)
	}
	// Spoil every block's stamp in place: truncating instead would make
	// the next segment pay for fresh pages the one before did not.
	var spoiled [stampLen]byte
	for off := int64(0); off < size; off += blockLen {
		if _, err := r.out.WriteAt(spoiled[:], off); err != nil {
			return fmt.Errorf("resetting output file: %w", err)
		}
	}
	return nil
}

// tracedFileSource and tracedFileSink put the harness spans around the
// storage layer on the traced file run; the untraced run hands the
// storage types to the protocol directly.
type tracedFileSource struct {
	*storage.FileSource
	tr   *tracer
	sess uint32
}

func (s *tracedFileSource) LoadAt(p []byte, capacity int, off uint64, done func(int, bool, error)) {
	t0 := s.tr.now()
	s.FileSource.LoadAt(p, capacity, off, func(n int, eof bool, err error) {
		if n > 0 {
			s.tr.load(s.sess, off, t0, s.tr.now())
		}
		done(n, eof, err)
	})
}

type tracedFileSink struct {
	*storage.FileSink
	tr   *tracer
	sess uint32
}

func (k *tracedFileSink) Store(hdr wire.BlockHeader, data []byte, modelLen int, done func(error)) {
	t0 := k.tr.now()
	k.FileSink.Store(hdr, data, modelLen, func(err error) {
		k.tr.store(k.sess, hdr.Offset, t0, k.tr.now())
		done(err)
	})
}

// tmpDir is where the file workload keeps its two files: inside the
// checkout, under the benchmark's ignored output directory.
func tmpDir(outDir string) string { return filepath.Join(outDir, "tmp") }
