// Package storage is the real-file asynchronous I/O engine behind the
// protocol's storage pipeline: the analogue of the middleware's
// dedicated data-loading and data-offloading threads (paper Section
// IV.C), which keep disk reads and writes overlapped with network
// transfer instead of serializing load → send → store.
//
// The pieces compose:
//
//   - Engine: a bounded worker pool with an unbounded submit queue.
//     Submitting never blocks the caller (the protocol loop); the
//     protocol's own Config.LoadDepth / Config.StoreDepth bound how
//     many jobs are outstanding, and Workers bounds how many touch the
//     device at once.
//   - FileSource / FileSink: offset-addressed block I/O against an
//     *os.File (or any io.ReaderAt / io.WriterAt) through an Engine.
//     FileSource implements core.BlockSourceAt, so the protocol keeps
//     LoadDepth reads in flight; FileSink implements core.OffsetSink,
//     so arriving blocks are written by offset with no reassembly wait.
//   - AsyncSource: wraps any synchronous core.BlockSource so its Load
//     runs on a worker instead of the protocol loop.
//
// Engines carry optional core.IOMetrics instrumentation: queue wait
// (submit → worker pickup) versus device time (the operation itself),
// the two halves of storage latency the load-depth ablation separates.
package storage

import (
	"sync"
	"time"

	"rftp/internal/core"
)

// Engine is a bounded worker pool executing storage jobs off the
// protocol loop. The zero value is not usable; call NewEngine.
type Engine struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []job
	closed  bool
	active  int // jobs picked up by a worker, not yet finished
	metrics *core.IOMetrics
	wg      sync.WaitGroup
}

type job struct {
	run func()
	enq time.Time
}

// NewEngine starts a pool of workers goroutines (minimum 1). workers is
// the device-level concurrency: for a single spindle or a synchronous
// wrapped source, 1 preserves serial device access while still moving
// the work off the protocol loop; for RAID/SSD/NFS targets, more
// workers let the device see parallel requests.
func NewEngine(workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	e := &Engine{}
	e.cond = sync.NewCond(&e.mu)
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// SetMetrics attaches instrumentation (nil detaches). Call before
// submitting work; the handles are read without synchronization once
// workers are busy.
func (e *Engine) SetMetrics(m *core.IOMetrics) {
	e.mu.Lock()
	e.metrics = m
	e.mu.Unlock()
}

// submit enqueues fn for a worker. It never blocks; after Close the job
// is dropped (callers are torn down with the engine).
func (e *Engine) submit(fn func()) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.queue = append(e.queue, job{run: fn, enq: time.Now()})
	if m := e.metrics; m != nil {
		m.InFlight.Set(int64(len(e.queue) + e.active))
	}
	e.mu.Unlock()
	e.cond.Signal()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.queue) == 0 && e.closed {
			e.mu.Unlock()
			return
		}
		j := e.queue[0]
		e.queue = e.queue[1:]
		e.active++
		m := e.metrics
		e.mu.Unlock()

		start := time.Now()
		if m != nil {
			m.QueueWait.ObserveDuration(start.Sub(j.enq))
		}
		j.run()
		if m != nil {
			m.DeviceTime.ObserveDuration(time.Since(start))
		}

		e.mu.Lock()
		e.active--
		if m != nil {
			m.InFlight.Set(int64(len(e.queue) + e.active))
		}
		e.mu.Unlock()
	}
}

// Close stops the workers after draining queued jobs and waits for them
// to exit. Safe to call twice.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.cond.Broadcast()
	e.wg.Wait()
}
