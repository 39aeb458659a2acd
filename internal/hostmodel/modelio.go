package hostmodel

import (
	"time"

	"rftp/internal/wire"
)

// ModelSource is the simulation-scale data generator: it models reading
// Total bytes from /dev/zero, charging NsPerByte of CPU per byte to the
// loader thread (the paper measured 50% of one core at 25 Gbps). A
// separate loader thread mirrors the middleware's dedicated data-loading
// thread. It is offset-addressed (core.BlockSourceAt), so the protocol
// keeps LoadDepth loads pipelined through the loader; set Loaders to spread
// concurrent loads round-robin over several threads (parallel loader
// threads on independent cores).
type ModelSource struct {
	Total     int64
	Loader    *Thread
	Loaders   []*Thread
	NsPerByte float64

	produced int64
	nextTh   int
}

// Load implements core.BlockSource (serial cursor-based loads).
func (s *ModelSource) Load(p []byte, capacity int, done func(int, bool, error)) {
	off := s.produced
	s.produced += min(int64(capacity), s.Total-off)
	s.load(capacity, off, done)
}

// LoadAt implements core.BlockSourceAt: stateless offset-addressed loads,
// safe with many outstanding.
func (s *ModelSource) LoadAt(p []byte, capacity int, off uint64, done func(int, bool, error)) {
	if int64(off) >= s.Total {
		done(0, true, nil)
		return
	}
	s.load(capacity, int64(off), done)
}

// load charges one read of up to capacity bytes at off to a loader.
func (s *ModelSource) load(capacity int, off int64, done func(int, bool, error)) {
	n := min(int64(capacity), s.Total-off)
	eof := off+n >= s.Total
	cost := ScaleNsPerByte(s.NsPerByte, int(n))
	nextThread(s.Loader, s.Loaders, &s.nextTh).Post(cost, func() { done(int(n), eof, nil) })
}

// nextThread picks the next of many worker threads round-robin, or the
// single one when many is empty.
func nextThread(single *Thread, many []*Thread, next *int) *Thread {
	if len(many) == 0 {
		return single
	}
	t := many[*next%len(many)]
	*next++
	return t
}

// ModelSink is the simulation-scale consumer: it charges NsPerByte per
// byte to the storer thread (near zero for /dev/null, higher for POSIX
// disk writes) and optionally an extra fixed PerBlock cost (syscalls).
// It is offset-addressed (its accounting is order-independent), so the
// sink stores arriving blocks immediately instead of waiting behind
// reassembly holes; set Storers to spread concurrent stores over
// several threads.
type ModelSink struct {
	Storer    *Thread
	Storers   []*Thread
	NsPerByte float64
	PerBlock  time.Duration

	stored int64
	nextTh int
}

// Store implements core.BlockSink.
func (s *ModelSink) Store(hdr wire.BlockHeader, payload []byte, modelLen int, done func(error)) {
	s.stored += int64(modelLen)
	cost := ScaleNsPerByte(s.NsPerByte, modelLen) + s.PerBlock
	nextThread(s.Storer, s.Storers, &s.nextTh).Post(cost, func() { done(nil) })
}

// OffsetStores implements core.OffsetSink: modeled stores are placement-free.
func (s *ModelSink) OffsetStores() bool { return true }

// Stored returns total bytes consumed.
func (s *ModelSink) Stored() int64 { return s.stored }
