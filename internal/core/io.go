package core

import (
	"io"

	"rftp/internal/verbs"
	"rftp/internal/wire"
)

// BlockSource supplies payload to a transfer (the "application loads
// data from disk directly to the memory block" stage of the source FSM).
//
// Load fills p with up to len(p) bytes and calls done exactly once, from
// any goroutine or loop. n is the number of bytes produced, eof marks
// the end of the dataset (a final short or empty block is allowed). For
// modeled transfers p is nil and cap is the requested length; the
// implementation only decides n and charges whatever CPU cost applies.
//
// The protocol issues Loads strictly in sequence order and never issues
// the next Load for a session before the previous one completed, so
// implementations may be stateful readers.
type BlockSource interface {
	Load(p []byte, cap int, done func(n int, eof bool, err error))
}

// BlockSourceAt is an offset-addressed BlockSource: LoadAt fills p with
// up to capacity bytes starting at byte offset off of the dataset, and
// is safe to call with multiple loads outstanding (the paper's source
// FSM keeps many blocks in `loading` at once via a dedicated
// data-loading thread and O_DIRECT RAID reads).
//
// Contract: a load whose window lies strictly inside the dataset
// returns exactly capacity bytes with eof=false; the load straddling
// the end returns the remaining n>0 bytes with eof=true; loads at or
// past the end return (0, true, nil). The protocol issues LoadAts at
// consecutive capacity-strided offsets and may observe completions in
// any order; blocks over-issued past EOF are discarded.
//
// Sources that cannot honor this (streaming readers with no known
// length) should implement only BlockSource and stay on the serial
// one-load-at-a-time path.
type BlockSourceAt interface {
	BlockSource
	LoadAt(p []byte, capacity int, off uint64, done func(n int, eof bool, err error))
}

// BlockSink consumes delivered payload in order (the "offloading data
// into file system" stage of the sink FSM). payload is nil for modeled
// transfers; modelLen is the payload length either way. done must be
// called exactly once.
type BlockSink interface {
	Store(hdr wire.BlockHeader, payload []byte, modelLen int, done func(err error))
}

// OffsetSink marks a BlockSink whose Store places payload by
// hdr.Offset, independent of call order, and tolerates multiple Stores
// outstanding at once. The sink then runs the offset fast path: blocks
// are stored the moment they arrive — no waiting behind reassembly
// holes — bounded by Config.StoreDepth. Sinks that append to a stream
// (WriterSink) must not implement this; they keep the in-order
// delivery path.
type OffsetSink interface {
	BlockSink
	// OffsetStores reports whether the fast path may be used; a wrapper
	// can return false to force in-order delivery for a particular
	// destination.
	OffsetStores() bool
}

// ReaderSource adapts an io.Reader. Reads happen synchronously in the
// caller of Load (the protocol loop for in-process fabrics).
type ReaderSource struct{ R io.Reader }

// Load implements BlockSource.
func (s ReaderSource) Load(p []byte, cap int, done func(int, bool, error)) {
	n, err := io.ReadFull(s.R, p)
	switch err {
	case nil:
		done(n, false, nil)
	case io.EOF, io.ErrUnexpectedEOF:
		done(n, true, nil)
	default:
		done(n, false, err)
	}
}

// WriterSink adapts an io.Writer.
type WriterSink struct{ W io.Writer }

// Store implements BlockSink.
func (s WriterSink) Store(hdr wire.BlockHeader, payload []byte, modelLen int, done func(error)) {
	_, err := s.W.Write(payload)
	done(err)
}

// DiscardSink drops payload (the /dev/null sink).
type DiscardSink struct{}

// Store implements BlockSink.
func (DiscardSink) Store(hdr wire.BlockHeader, payload []byte, modelLen int, done func(error)) {
	done(nil)
}

// LoopSource serializes another BlockSource's completions onto a loop:
// used when a source completes on a foreign thread and the protocol
// needs the callback on its own loop. The protocol core already does
// this internally; LoopSource is for compositions in tests and tools.
type LoopSource struct {
	Inner BlockSource
	Loop  verbs.Loop
}

// Load implements BlockSource.
func (s LoopSource) Load(p []byte, capacity int, done func(int, bool, error)) {
	s.Inner.Load(p, capacity, func(n int, eof bool, err error) {
		s.Loop.Post(0, func() { done(n, eof, err) })
	})
}

// ioTasks recycles the carriers that bring storage completions — a
// BlockSource load, a BlockSink store — from whatever goroutine the
// backend finishes on back onto the control loop without allocating per
// block: a carrier's callbacks are bound once when it is built, and it
// rejoins the free list (control-loop only, so a plain slice suffices)
// before its result is delivered.
type ioTasks[S any] struct {
	loop verbs.Loop
	done func(sess S, b *block, n int, eof bool, err error)
	free []*ioTask[S]
}

type ioTask[S any] struct {
	owner  *ioTasks[S]
	sess   S
	b      *block
	n      int
	eof    bool
	err    error
	loaded func(int, bool, error) // the done a BlockSource gets
	stored func(error)            // the done a BlockSink gets
	run    func()
}

func (p *ioTasks[S]) get(sess S, b *block) *ioTask[S] {
	var t *ioTask[S]
	if n := len(p.free); n > 0 {
		t = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		t = &ioTask[S]{owner: p}
		t.loaded, t.run = t.complete, t.exec
		t.stored = func(err error) { t.complete(0, false, err) }
	}
	t.sess, t.b = sess, b
	return t
}

// complete may run on any goroutine, so it only records the result and
// posts.
func (t *ioTask[S]) complete(n int, eof bool, err error) {
	t.n, t.eof, t.err = n, eof, err
	t.owner.loop.Post(0, t.run)
}

func (t *ioTask[S]) exec() {
	p, sess, b, n, eof, err := t.owner, t.sess, t.b, t.n, t.eof, t.err
	var none S
	t.sess, t.b, t.err = none, nil, nil
	p.free = append(p.free, t)
	p.done(sess, b, n, eof, err)
}
