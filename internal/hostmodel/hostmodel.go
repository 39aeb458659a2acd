// Package hostmodel models host CPU resources for the discrete-event
// simulation.
//
// A Host owns a set of Threads. Each Thread is a serial FIFO CPU server:
// work items posted to it execute one at a time in virtual time, each
// advancing the thread's cumulative busy time by its CPU cost. A thread
// whose offered load exceeds one core's worth of CPU develops a backlog,
// which is exactly how the paper's single-threaded GridFTP ceiling and the
// CPU-versus-block-size curves arise.
//
// Threads are assumed pinned to distinct cores (the testbeds have 8-16
// cores and the applications use far fewer threads), so cross-thread
// contention is not modeled. Utilization is reported the way the paper
// reports it: percent of one core, so a 12-core host can reach 1200%.
//
// ModelSource and ModelSink are the protocol's block source and sink at
// simulation scale: they move no bytes and charge loader and storer
// Threads for them instead.
package hostmodel

import (
	"fmt"
	"time"

	"rftp/internal/sim"
)

// Params holds the CPU cost calibration constants. All costs are charged
// to modeled threads; see EXPERIMENTS.md for the calibration rationale.
type Params struct {
	// PostWR is the CPU cost to build and post one work request through
	// the verbs interface (WQE construction + doorbell).
	PostWR time.Duration
	// Completion is the CPU cost to reap and dispatch one completion.
	Completion time.Duration
	// Interrupt is the cost of one completion interrupt/event wakeup.
	Interrupt time.Duration
	// CompletionsPerInterrupt models interrupt moderation: one Interrupt
	// cost is charged per this many completions (>=1).
	CompletionsPerInterrupt int
	// MemLoadNsPerByte is the per-byte CPU cost to synthesize payload
	// (reading /dev/zero and faulting/memsetting pages). The paper
	// measured 50% of one core at 25 Gbps, i.e. 0.16 ns/B.
	MemLoadNsPerByte float64
	// MemStoreNsPerByte is the per-byte CPU cost to consume payload into
	// /dev/null (near zero: no copy is performed).
	MemStoreNsPerByte float64
	// TCPPerSegment is the kernel CPU cost per TCP segment processed
	// (sender or receiver side).
	TCPPerSegment time.Duration
	// TCPCopyNsPerByte is the per-byte user<->kernel copy cost paid by
	// TCP-based tools (RDMA paths are zero-copy and never pay it).
	TCPCopyNsPerByte float64
	// Syscall is the fixed cost of one read/write/epoll syscall.
	Syscall time.Duration
	// DiskPosixNsPerByte is the per-byte CPU cost of buffered POSIX disk
	// writes (page-cache copy + writeback management).
	DiskPosixNsPerByte float64
	// DiskDirectNsPerByte is the per-byte CPU cost of O_DIRECT disk
	// writes (DMA setup only).
	DiskDirectNsPerByte float64
}

// DefaultParams returns the calibration used throughout the experiments.
// The constants are chosen to land in the ranges reported for the paper's
// 2010-era Xeon/Opteron hosts; EXPERIMENTS.md documents each choice.
func DefaultParams() Params {
	return Params{
		PostWR:                  300 * time.Nanosecond,
		Completion:              700 * time.Nanosecond,
		Interrupt:               2 * time.Microsecond,
		CompletionsPerInterrupt: 4,
		MemLoadNsPerByte:        0.16,
		MemStoreNsPerByte:       0.01,
		TCPPerSegment:           1200 * time.Nanosecond,
		TCPCopyNsPerByte:        0.30,
		Syscall:                 900 * time.Nanosecond,
		DiskPosixNsPerByte:      0.35,
		DiskDirectNsPerByte:     0.05,
	}
}

// ScaleNsPerByte converts a ns/byte rate and a byte count to a Duration.
func ScaleNsPerByte(nsPerByte float64, n int) time.Duration {
	return time.Duration(nsPerByte * float64(n))
}

// Host is a simulated machine: a named collection of threads plus the
// cost parameters its software uses.
type Host struct {
	Name   string
	Cores  int
	Params Params

	sched   *sim.Scheduler
	threads []*Thread
}

// NewHost creates a host with the given core count attached to sched.
func NewHost(sched *sim.Scheduler, name string, cores int, p Params) *Host {
	if cores < 1 {
		panic("hostmodel: cores must be >= 1")
	}
	if p.CompletionsPerInterrupt < 1 {
		p.CompletionsPerInterrupt = 1
	}
	return &Host{Name: name, Cores: cores, Params: p, sched: sched}
}

// Scheduler returns the simulation scheduler the host runs on.
func (h *Host) Scheduler() *sim.Scheduler { return h.sched }

// NewThread creates a modeled thread on the host. The label appears in
// debug output only.
func (h *Host) NewThread(label string) *Thread {
	t := &Thread{host: h, label: label}
	h.threads = append(h.threads, t)
	return t
}

// Threads returns the host's threads.
func (h *Host) Threads() []*Thread { return h.threads }

// BusyTotal returns cumulative busy CPU time across all threads.
func (h *Host) BusyTotal() time.Duration {
	var sum time.Duration
	for _, t := range h.threads {
		sum += t.Busy()
	}
	return sum
}

// UtilizationSince reports average CPU utilization in percent-of-one-core
// over the window (busyAtStart captured earlier via BusyTotal, startTime
// the virtual time then). A 12-core host saturating all cores reports
// 1200.
func (h *Host) UtilizationSince(busyAtStart, startTime time.Duration) float64 {
	elapsed := h.sched.Now() - startTime
	if elapsed <= 0 {
		return 0
	}
	busy := h.BusyTotal() - busyAtStart
	return 100 * float64(busy) / float64(elapsed)
}

// Thread is a serial FIFO CPU server in virtual time. It satisfies the
// protocol core's Loop interface: closures posted to it run one at a
// time, each charged its CPU cost, and a backlog delays later work.
type Thread struct {
	host      *Host
	label     string
	busyUntil time.Duration
	busy      time.Duration
	queued    int
	maxQueue  int
	completed uint64
	intAccum  int // completions since last charged interrupt
	taskFree  []*threadTask
}

// threadTask carries one posted work item through the scheduler without
// materializing a closure. Tasks are recycled on the owning thread's
// freelist (the simulation is single-goroutine, so no locking).
type threadTask struct {
	t  *Thread
	fn func()
}

func runThreadTask(arg any) {
	tt := arg.(*threadTask)
	t, fn := tt.t, tt.fn
	tt.fn = nil
	t.taskFree = append(t.taskFree, tt)
	t.queued--
	t.completed++
	fn()
}

// Label returns the thread's debug label.
func (t *Thread) Label() string { return t.label }

// Host returns the host owning the thread.
func (t *Thread) Host() *Host { return t.host }

// HostParams returns the owning host's cost parameters.
func (t *Thread) HostParams() Params { return t.host.Params }

// Busy returns cumulative CPU time consumed by work posted to the thread.
func (t *Thread) Busy() time.Duration { return t.busy }

// Completed returns the number of work items executed.
func (t *Thread) Completed() uint64 { return t.completed }

// MaxQueue returns the high-water mark of queued work items.
func (t *Thread) MaxQueue() int { return t.maxQueue }

// Now returns the current virtual time.
func (t *Thread) Now() time.Duration { return t.host.sched.Now() }

// Post schedules fn to run on the thread, charging cost CPU time. The
// callback fires in virtual time when the work *finishes* (FIFO after all
// previously posted work).
func (t *Thread) Post(cost time.Duration, fn func()) {
	if cost < 0 {
		panic(fmt.Sprintf("hostmodel: negative cost %v", cost))
	}
	now := t.host.sched.Now()
	start := now
	if t.busyUntil > start {
		start = t.busyUntil
	}
	finish := start + cost
	t.busyUntil = finish
	t.busy += cost
	t.queued++
	if t.queued > t.maxQueue {
		t.maxQueue = t.queued
	}
	var tt *threadTask
	if n := len(t.taskFree); n > 0 {
		tt = t.taskFree[n-1]
		t.taskFree[n-1] = nil
		t.taskFree = t.taskFree[:n-1]
	} else {
		tt = &threadTask{t: t}
	}
	tt.fn = fn
	t.host.sched.PostArg(finish, runThreadTask, tt)
}

// Charge adds cost to the thread's CPU accounting as if consumed by the
// currently executing work item: it extends the busy horizon, delaying
// every work item posted *after* the charge (items already queued keep
// their scheduled finish times). Fabrics use it to bill synchronous
// verbs calls (posting a WR) to the calling thread.
func (t *Thread) Charge(cost time.Duration) {
	if cost <= 0 {
		return
	}
	now := t.host.sched.Now()
	if t.busyUntil < now {
		t.busyUntil = now
	}
	t.busyUntil += cost
	t.busy += cost
}

// After schedules fn to run on the thread no earlier than d from now
// (timer first, then FIFO through the thread with zero CPU cost).
func (t *Thread) After(d time.Duration, fn func()) {
	t.host.sched.After(d, func() { t.Post(0, fn) })
}

// ChargeInterrupt charges the interrupt cost amortized by interrupt
// moderation: every CompletionsPerInterrupt calls pay one Interrupt.
// It returns the cost to fold into the caller's Post.
func (t *Thread) ChargeInterrupt() time.Duration {
	t.intAccum++
	if t.intAccum >= t.host.Params.CompletionsPerInterrupt {
		t.intAccum = 0
		return t.host.Params.Interrupt
	}
	return 0
}

// Backlog returns how far in the future the thread's queue currently
// extends (zero when idle).
func (t *Thread) Backlog() time.Duration {
	now := t.host.sched.Now()
	if t.busyUntil <= now {
		return 0
	}
	return t.busyUntil - now
}
