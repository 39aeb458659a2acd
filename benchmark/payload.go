package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rftp/internal/wire"
)

// blockSource and blockSink restate core.BlockSource and core.BlockSink
// so that only harness.go has to import core: a value of either type is
// assignable to the core interface of the same shape.
type blockSource interface {
	Load(p []byte, capacity int, done func(n int, eof bool, err error))
}

type blockSink interface {
	Store(hdr wire.BlockHeader, payload []byte, modelLen int, done func(err error))
}

// stampLen is the length of each of the two stamps a block carries, at
// the head and at the tail of its payload.
const stampLen = 8

// fullCompareEvery is how often the sink compares a whole block against
// the template rather than only its stamps.
const fullCompareEvery = 64

// payload generates and verifies the bytes a workload moves. Every
// block is a copy of one seeded template with the first and last 8
// bytes overwritten: the head stamp carries the harness session number
// and a hash of (seed, session, offset), the tail stamp a hash that
// also covers the length, so a block that lands at the wrong offset, in
// the wrong session, truncated or with a flipped byte fails a check.
type payload struct {
	seed     uint64
	template []byte

	failed atomic.Int64
	stores atomic.Int64
	mu     sync.Mutex
	notes  []string // first few failure descriptions
}

func newPayload(seed int64, capacity int) *payload {
	p := &payload{seed: mix64(uint64(seed)), template: make([]byte, capacity)}
	rand.New(rand.NewSource(seed)).Read(p.template)
	return p
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (p *payload) headStamp(sess uint32, off uint64) uint64 {
	return uint64(sess)<<32 | mix64(p.seed^mix64(off)^uint64(sess))&0xffffffff
}

func (p *payload) tailStamp(sess uint32, off uint64, n int) uint64 {
	return mix64(p.seed ^ mix64(off+uint64(n)<<40) ^ uint64(sess)<<20)
}

// fail records one failed operation.
func (p *payload) fail(format string, args ...any) {
	p.failed.Add(1)
	p.mu.Lock()
	if len(p.notes) < 8 {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
	p.mu.Unlock()
}

// memSource is the harness BlockSource of one session: total bytes of
// stamped template copies, produced serially like `rftp -zero`.
type memSource struct {
	p     *payload
	tr    *tracer // nil on untraced runs
	sess  uint32
	total int64
	off   int64
}

func (s *memSource) Load(buf []byte, capacity int, done func(int, bool, error)) {
	var t0 int64
	if s.tr != nil {
		t0 = s.tr.now()
	}
	n := int64(capacity)
	if rem := s.total - s.off; n > rem {
		n = rem
	}
	off := uint64(s.off)
	copy(buf[:n], s.p.template[:n])
	binary.BigEndian.PutUint64(buf[:stampLen], s.p.headStamp(s.sess, off))
	binary.BigEndian.PutUint64(buf[n-stampLen:n], s.p.tailStamp(s.sess, off, int(n)))
	s.off += n
	if s.tr != nil {
		s.tr.load(s.sess, off, t0, s.tr.now())
	}
	done(int(n), s.off >= s.total, nil)
}

// memSink is the harness BlockSink of one session. It checks every
// block's stamps and length, that every offset arrives exactly once and
// that the total matches; one block in fullCompareEvery is compared
// with the template byte for byte.
type memSink struct {
	p      *payload
	tr     *tracer
	total  int64
	sess   uint32 // harness session number, learnt from the first block
	known  bool
	seen   []uint64 // bitmap by block index
	blocks int64
	bytes  int64
}

func newMemSink(p *payload, tr *tracer, total int64) *memSink {
	capacity := int64(len(p.template))
	nblocks := (total + capacity - 1) / capacity
	return &memSink{p: p, tr: tr, total: total, seen: make([]uint64, (nblocks+63)/64)}
}

func (k *memSink) Store(hdr wire.BlockHeader, data []byte, modelLen int, done func(error)) {
	var t0 int64
	if k.tr != nil {
		t0 = k.tr.now()
	}
	k.check(hdr, data, modelLen)
	if k.tr != nil {
		k.tr.store(k.sess, hdr.Offset, t0, k.tr.now())
	}
	done(nil)
}

func (k *memSink) check(hdr wire.BlockHeader, data []byte, modelLen int) {
	p := k.p
	capacity := int64(len(p.template))
	n := len(data)
	if n != int(hdr.PayloadLen) || n != modelLen || n < 2*stampLen {
		p.fail("block at offset %d: length %d, header says %d, model %d", hdr.Offset, n, hdr.PayloadLen, modelLen)
		return
	}
	off := int64(hdr.Offset)
	want := capacity
	if rem := k.total - off; rem < want {
		want = rem
	}
	if off%capacity != 0 || off >= k.total || int64(n) != want {
		p.fail("block at offset %d length %d does not fit a %d-byte dataset of %d-byte blocks", off, n, k.total, capacity)
		return
	}
	head := binary.BigEndian.Uint64(data[:stampLen])
	sess := uint32(head >> 32)
	if !k.known {
		k.sess, k.known = sess, true
	}
	if sess != k.sess || head != p.headStamp(sess, hdr.Offset) {
		p.fail("block at offset %d: head stamp %#x, want %#x (session %d)", off, head, p.headStamp(k.sess, hdr.Offset), k.sess)
		return
	}
	if tail := binary.BigEndian.Uint64(data[n-stampLen:]); tail != p.tailStamp(sess, hdr.Offset, n) {
		p.fail("block at offset %d: tail stamp %#x, want %#x", off, tail, p.tailStamp(sess, hdr.Offset, n))
		return
	}
	idx := off / capacity
	if k.seen[idx/64]&(1<<(idx%64)) != 0 {
		p.fail("block at offset %d delivered twice", off)
		return
	}
	k.seen[idx/64] |= 1 << (idx % 64)
	if p.stores.Add(1)%fullCompareEvery == 0 &&
		!bytes.Equal(data[stampLen:n-stampLen], p.template[stampLen:n-stampLen]) {
		p.fail("block at offset %d differs from the template", off)
		return
	}
	k.blocks++
	k.bytes += int64(n)
}

// finish checks the session's totals against what the protocol
// reported and returns the number of blocks verified.
func (k *memSink) finish(bytes, blocks int64, err error) int64 {
	capacity := int64(len(k.p.template))
	want := (k.total + capacity - 1) / capacity
	switch {
	case err != nil:
		k.p.fail("session %d failed at the sink: %v", k.sess, err)
	case k.bytes != k.total || k.blocks != want:
		k.p.fail("session %d: verified %d bytes in %d blocks, want %d in %d", k.sess, k.bytes, k.blocks, k.total, want)
	case bytes != k.total || blocks != want:
		k.p.fail("session %d: sink reported %d bytes in %d blocks, want %d in %d", k.sess, bytes, blocks, k.total, want)
	}
	return k.blocks
}

// tracer records the harness spans of a traced run in memory: one
// record per Load and per Store at the boundary where the harness hands
// a block to the protocol and gets it back, and one per session.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	loads    []ioSpan
	stores   []ioSpan
	sessions []sessionSpan
}

// ioSpan is one Load or Store call: start to its done callback.
type ioSpan struct {
	sess       uint32
	off        uint64
	start, end int64
}

// sessionSpan is one Transfer: the call, the source's onDone and the
// sink's OnSessionDone.
type sessionSpan struct {
	sess                    uint32
	call, srcDone, sinkDone int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) load(sess uint32, off uint64, start, end int64) {
	t.mu.Lock()
	t.loads = append(t.loads, ioSpan{sess, off, start, end})
	t.mu.Unlock()
}

func (t *tracer) store(sess uint32, off uint64, start, end int64) {
	t.mu.Lock()
	t.stores = append(t.stores, ioSpan{sess, off, start, end})
	t.mu.Unlock()
}

func (t *tracer) session(s sessionSpan) {
	t.mu.Lock()
	t.sessions = append(t.sessions, s)
	t.mu.Unlock()
}
