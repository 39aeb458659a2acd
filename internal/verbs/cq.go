package verbs

import (
	"sync"
	"sync/atomic"
	"time"
)

// UpcallCQ is the completion-queue implementation shared by all fabrics:
// completions are dispatched as upcalls serialized on the owning Loop.
// Fabric implementations decide the CPU cost of each dispatch (modeled
// fabrics charge completion-reap plus amortized interrupt costs,
// real-time fabrics charge zero).
type UpcallCQ struct {
	mu   sync.Mutex
	loop Loop
	fn   func(WC)
	// orphanFlushes counts flushed completions dropped because no
	// handler was installed (see cqTask.exec).
	orphanFlushes atomic.Int64
}

// NewUpcallCQ creates a CQ whose handler runs on loop.
func NewUpcallCQ(loop Loop) *UpcallCQ {
	return &UpcallCQ{loop: loop}
}

// SetHandler installs the completion upcall.
func (c *UpcallCQ) SetHandler(fn func(WC)) {
	c.mu.Lock()
	c.fn = fn
	c.mu.Unlock()
}

// Loop returns the loop completions are dispatched on.
func (c *UpcallCQ) Loop() Loop { return c.loop }

// cqTask carries one completion through Loop.Post without materializing
// a fresh closure per dispatch: the run field is bound once when the task
// is constructed and the task is recycled through a sync.Pool (fabrics
// dispatch from arbitrary goroutines, so the pool must be concurrent).
type cqTask struct {
	cq  *UpcallCQ
	wc  WC
	run func()
}

var cqTaskPool sync.Pool

func newCQTask() any {
	t := &cqTask{}
	t.run = t.exec
	return t
}

func init() { cqTaskPool.New = newCQTask }

func (t *cqTask) exec() {
	cq, wc := t.cq, t.wc
	t.cq = nil
	t.wc = WC{}
	cqTaskPool.Put(t)
	cq.mu.Lock()
	fn := cq.fn
	cq.mu.Unlock()
	if fn == nil {
		// Closing a QP flushes its posted work onto whatever CQ it was
		// created with, and an owner that never got as far as installing
		// a handler (an early-return teardown) has nothing to do with
		// those: count and drop. A live completion nobody listens for is
		// a wiring bug in a fabric or test.
		if wc.Status == StatusFlushed {
			cq.orphanFlushes.Add(1)
			return
		}
		panic("verbs: completion delivered to CQ with no handler")
	}
	fn(wc)
}

// Dispatch delivers wc to the handler on the CQ's loop, charging cost.
func (c *UpcallCQ) Dispatch(cost time.Duration, wc WC) {
	t := cqTaskPool.Get().(*cqTask)
	t.cq = c
	t.wc = wc
	c.loop.Post(cost, t.run)
}
