package verbs

import (
	"sync"
	"time"

	"rftp/internal/ringq"
)

// WallLoop is a real-time event loop: one goroutine executing posted
// closures in FIFO order. It implements Loop; the CPU-cost argument is
// ignored (wall-clock time is real here).
//
// The queue is unbounded so a loop can always post to itself without
// deadlocking; protocol-level flow control bounds the actual depth.
type WallLoop struct {
	name string
	mu   sync.Mutex
	cond *sync.Cond
	q    ringq.Ring[func()]
	stop bool
	done chan struct{}
	t0   time.Time
}

// NewWallLoop creates and starts a loop.
func NewWallLoop(name string) *WallLoop {
	l := &WallLoop{name: name, done: make(chan struct{}), t0: time.Now()}
	l.cond = sync.NewCond(&l.mu)
	go l.run()
	return l
}

// Name returns the loop's debug name.
func (l *WallLoop) Name() string { return l.name }

// Now returns wall time since the loop started.
func (l *WallLoop) Now() time.Duration { return time.Since(l.t0) }

// Post enqueues fn; cost is ignored on a real-time loop.
func (l *WallLoop) Post(cost time.Duration, fn func()) {
	l.mu.Lock()
	if l.stop {
		l.mu.Unlock()
		return
	}
	l.q.Push(fn)
	l.cond.Signal()
	l.mu.Unlock()
}

// After runs fn on the loop after d of wall time.
func (l *WallLoop) After(d time.Duration, fn func()) {
	time.AfterFunc(d, func() { l.Post(0, fn) })
}

// Stop halts the loop after the closure in progress; queued closures are
// discarded. Blocks until the loop goroutine exits.
func (l *WallLoop) Stop() {
	l.mu.Lock()
	if l.stop {
		l.mu.Unlock()
		<-l.done
		return
	}
	l.stop = true
	l.cond.Signal()
	l.mu.Unlock()
	<-l.done
}

func (l *WallLoop) run() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for l.q.Len() == 0 && !l.stop {
			l.cond.Wait()
		}
		if l.stop {
			l.mu.Unlock()
			return
		}
		fn, _ := l.q.Pop()
		l.mu.Unlock()
		fn()
	}
}
