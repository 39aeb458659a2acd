package core

// Reactor sharding: the data hot path — posting WRITEs, taking their
// completions, and validating arrivals — runs on per-channel reactor
// shards, while the control plane (negotiation, credits, sessions,
// ordering, storage) stays single-threaded on shard 0's loop. Blocks
// move between the control plane and a shard through single-producer
// single-consumer mailboxes; a block is owned by exactly one loop at a
// time, and ownership transfers only through a mailbox, whose atomic
// ring publishes every field written by the previous owner. That
// ownership discipline is what lets shards call setState and stamp
// spans without locks (the loopconfine static pass polices the
// call-site side of the same rule).
//
// Shard 0 shares the control loop, so its mailboxes degenerate to
// direct calls: a one-shard endpoint executes exactly the classic
// single-reactor sequence, and multi-shard endpoints change scheduling
// but not protocol order within a channel.

import (
	"fmt"
	"sync/atomic"

	"rftp/internal/ringq"
	"rftp/internal/trace"
	"rftp/internal/verbs"
	"rftp/internal/wire"
)

// mailbox carries block-ownership handoffs from one loop to another.
// The producer and consumer loops are fixed at construction; when they
// are the same loop the handler runs inline, preserving the exact
// call ordering of the unsharded reactor.
type mailbox[T any] struct {
	q       *ringq.SPSC[T]
	loop    verbs.Loop
	handler func(T)
	inline  bool
	// scheduled implements the wakeup protocol: a producer that
	// transitions it false→true posts one drain; drain clears it before
	// consuming, so a push that loses the race still gets drained by
	// the pending run.
	scheduled atomic.Bool
	drainFn   func()
}

func newMailbox[T any](loop verbs.Loop, inline bool, capacity int, handler func(T)) *mailbox[T] {
	m := &mailbox[T]{q: ringq.NewSPSC[T](capacity), loop: loop, inline: inline, handler: handler}
	m.drainFn = m.drain
	return m
}

// send transfers v (and ownership of anything it references) to the
// consumer loop. Producer side only.
func (m *mailbox[T]) send(v T) {
	if m.inline {
		m.handler(v)
		return
	}
	m.q.Push(v)
	if m.scheduled.CompareAndSwap(false, true) {
		m.loop.Post(0, m.drainFn)
	}
}

func (m *mailbox[T]) drain() {
	m.scheduled.Store(false)
	for {
		v, ok := m.q.Pop()
		if !ok {
			return
		}
		m.handler(v)
	}
}

// srcEvKind discriminates shard→control events on the source.
type srcEvKind uint8

const (
	// srcEvWriteDone: a posted WRITE completed (any status); the block
	// returns to the control plane with the completion status.
	srcEvWriteDone srcEvKind = iota
	// srcEvPostFull: PostSend hit ErrSendQueueFull; the block was
	// reverted to Loaded and returns for requeueing.
	srcEvPostFull
	// srcEvPostErr: PostSend failed fatally for this channel.
	srcEvPostErr
)

type srcEvent struct {
	kind   srcEvKind
	b      *block
	status verbs.Status
	err    error
}

// srcShard owns a disjoint group of the source's data channels: it
// posts WRITEs handed over by the control plane (Sending→Waiting) and
// forwards their completions back. Its completion queue lives on its
// own loop, so on modeled hosts the per-block doorbell, completion and
// interrupt costs land on the shard's core.
type srcShard struct {
	s     *Source
	idx   int
	loop  verbs.Loop
	inbox *mailbox[*block]   // control → shard: Sending blocks to post
	out   *mailbox[srcEvent] // shard → control
	wr    verbs.SendWR       // reused post WR (PostSend copies)
}

func newSrcShard(s *Source, idx int, capacity int) *srcShard {
	sh := &srcShard{s: s, idx: idx, loop: s.ep.Shards[idx]}
	inline := idx == 0
	sh.inbox = newMailbox(sh.loop, inline, capacity, sh.post)
	sh.out = newMailbox(s.ep.Loop, inline, capacity, s.onShardEvent)
	s.ep.DataCQs[idx].SetHandler(sh.onDataWC)
	return sh
}

// post sends one block down its channel. The block arrives owned by
// this shard in Sending state with credit and channel already chosen.
func (sh *srcShard) post(b *block) {
	s := sh.s
	hdr := wire.BlockHeader{
		Session: b.session, Seq: b.seq, Offset: b.offset,
		PayloadLen: uint32(b.payloadLen), Last: b.last,
	}
	wr := &sh.wr
	*wr = verbs.SendWR{
		WRID:   uint64(b.idx),
		Op:     verbs.OpWrite,
		Remote: wire2remote(b.credit),
	}
	if s.cfg.NotifyViaImm {
		// The immediate value names the consumed region; the sink
		// reads everything else from the block header it owns.
		wr.Op = verbs.OpWriteImm
		wr.Imm = b.credit.RKey
	}
	if s.cfg.ModelPayload {
		wire.EncodeBlockHeader(b.hdrBuf[:], hdr)
		wr.Data = b.hdrBuf[:]
		wr.ModelBytes = b.payloadLen
	} else {
		wire.EncodeBlockHeader(b.mr.Buf, hdr)
		wr.Data = b.mr.Buf[:wire.BlockHeaderSize+b.payloadLen]
	}
	if err := s.ep.Data[b.chIdx].PostSend(wr); err != nil {
		b.setState(BlockLoaded)
		if err == verbs.ErrSendQueueFull {
			sh.out.send(srcEvent{kind: srcEvPostFull, b: b})
		} else {
			sh.out.send(srcEvent{kind: srcEvPostErr, b: b, err: err})
		}
		return
	}
	b.setState(BlockWaiting)
	b.spans.SetChannel(b.spanRef, b.chIdx)
	s.Trace.Emit(trace.Event{Cat: trace.CatBlock, Name: "posted",
		Session: b.session, Block: b.seq, Channel: int32(b.chIdx), V1: int64(b.payloadLen)})
	if t := &s.tel; t.reg != nil {
		b.tPost = sh.loop.Now()
		t.creditWait.Observe(int64(b.tPost - b.tReady))
		t.blocksPosted.Inc()
		t.bytesPosted.Add(int64(b.payloadLen))
		t.chBlocks[b.chIdx].Inc()
		t.chBytes[b.chIdx].Add(int64(b.payloadLen))
	}
}

// onDataWC forwards a WRITE completion to the control plane. Every
// completion names a block this shard posted (one WC per post), so the
// block is shard-owned here and the ownership handoff through out
// publishes it back.
func (sh *srcShard) onDataWC(wc verbs.WC) {
	s := sh.s
	if s.dead.Load() {
		return
	}
	b := s.pool.byIdx(int(wc.WRID))
	if b == nil || b.state != BlockWaiting {
		return // stale completion after failure handling
	}
	sh.out.send(srcEvent{kind: srcEvWriteDone, b: b, status: wc.Status})
}

// sinkEvKind discriminates shard→control events on the sink.
type sinkEvKind uint8

const (
	// sinkEvArrived: a WRITE WITH IMMEDIATE landed, the block was
	// validated and moved Waiting→DataReady on the shard; the control
	// plane takes over reassembly and crediting.
	sinkEvArrived sinkEvKind = iota
	// sinkEvFetched: a pull-mode READ completed, the fetched header was
	// validated and the block moved Fetching→DataReady on the shard; the
	// control plane notifies the source and takes over reassembly.
	sinkEvFetched
	// sinkEvReadErr: PostSend for a READ failed; the block was reverted
	// to Free and returns with the error for requeue-or-fail triage.
	sinkEvReadErr
	// sinkEvFail: a fatal data-path error detected on the shard.
	sinkEvFail
)

type sinkEvent struct {
	kind sinkEvKind
	b    *block
	err  error
}

// sinkShard owns a disjoint group of the sink's data channels in
// immediate-notification mode: it takes WRITE WITH IMMEDIATE
// completions, replenishes the notify receive ring, validates the
// arrival against the named region, and hands the data-ready block to
// the control plane. (Explicit-notification mode delivers arrivals on
// the control QP, so sink shards then see only flushes.)
type sinkShard struct {
	k       *Sink
	idx     int
	loop    verbs.Loop
	out     *mailbox[sinkEvent] // shard → control
	fetchIn *mailbox[*block]    // control → shard: Fetching blocks to READ
	chOf    map[verbs.QPID]int  // data QP id → channel index (read-only)
	rdWR    verbs.SendWR        // reused READ WR (PostSend copies)
}

func newSinkShard(k *Sink, idx int, capacity int) *sinkShard {
	sh := &sinkShard{k: k, idx: idx, loop: k.ep.Shards[idx], chOf: make(map[verbs.QPID]int)}
	sh.out = newMailbox(k.ep.Loop, idx == 0, capacity, k.onShardEvent)
	sh.fetchIn = newMailbox(sh.loop, idx == 0, capacity, sh.postRead)
	for ch, qp := range k.ep.Data {
		if k.ep.shardIndex(ch) == idx {
			sh.chOf[qp.ID()] = ch
		}
	}
	k.ep.DataCQs[idx].SetHandler(sh.onDataWC)
	return sh
}

func (sh *sinkShard) onDataWC(wc verbs.WC) {
	k := sh.k
	if k.dead.Load() || wc.Status == verbs.StatusFlushed {
		return
	}
	if wc.Status != verbs.StatusSuccess {
		sh.out.send(sinkEvent{kind: sinkEvFail, err: fmt.Errorf("core: data QP failure: %v", wc.Status)})
		return
	}
	if wc.Op == verbs.OpRead {
		sh.readWC(wc)
		return
	}
	if wc.Op != verbs.OpWriteImm {
		return
	}
	// Replenish the consumed notification receive on the same QP.
	if ch, ok := sh.chOf[wc.QP]; ok {
		if err := k.ep.repostDataNotifyRecv(ch, wc.WRID); err != nil && err != ErrClosed {
			sh.out.send(sinkEvent{kind: sinkEvFail, err: fmt.Errorf("core: reposting notify recv: %w", err)})
			return
		}
	}
	sh.handleImmNotify(wc)
}

// handleImmNotify processes a WRITE WITH IMMEDIATE arrival: the
// immediate value is the rkey of the consumed region, the completion's
// byte count the only other thing the notice says. The credit grant
// happened-before the source's WRITE, which happened-before this
// completion, so the granted block's fields (and the pool pointer
// itself) are visible here, and a valid arrival transfers the block's
// ownership from the wire to this shard.
func (sh *sinkShard) handleImmNotify(wc verbs.WC) {
	k := sh.k
	b, err := k.grantedRegion(wc.Imm)
	if err == nil {
		err = k.arrive(b, b.session, -1, wc.ByteLen-wire.BlockHeaderSize)
	}
	if err != nil {
		sh.out.send(sinkEvent{kind: sinkEvFail, err: err})
		return
	}
	sh.out.send(sinkEvent{kind: sinkEvArrived, b: b})
}

// postRead issues one pull-mode RDMA READ. The block arrives owned by
// this shard in Fetching state with the advertised remote region in
// its credit field and the channel already chosen by the control
// plane (which also enforces the per-channel initiator-depth bound).
func (sh *sinkShard) postRead(b *block) {
	k := sh.k
	wr := &sh.rdWR
	*wr = verbs.SendWR{
		WRID:    uint64(b.idx),
		Op:      verbs.OpRead,
		Remote:  wire2remote(b.credit),
		Local:   b.mr,
		ReadLen: wire.BlockHeaderSize + b.payloadLen,
	}
	if err := k.ep.Data[b.chIdx].PostSend(wr); err != nil {
		b.setState(BlockFree)
		sh.out.send(sinkEvent{kind: sinkEvReadErr, b: b, err: err})
		return
	}
	b.spans.SetChannel(b.spanRef, b.chIdx)
	k.Trace.Emit(trace.Event{Cat: trace.CatBlock, Name: "read_posted",
		Session: b.session, Block: b.seq, Channel: int32(b.chIdx), V1: int64(b.payloadLen)})
	if k.tel.reg != nil {
		b.tPost = sh.loop.Now()
	}
}

// readWC takes a completed READ: the fetched header must name the same
// session, sequence, and length as the advertisement the block was
// stamped from. The block was shard-owned since postRead (one WC per
// READ), so the DataReady transition happens here and the handoff
// publishes it back.
func (sh *sinkShard) readWC(wc verbs.WC) {
	k := sh.k
	pool := k.pool
	if pool == nil {
		return
	}
	b := pool.byIdx(int(wc.WRID))
	if b == nil || b.state != BlockFetching {
		return // stale completion after failure handling
	}
	if err := k.arrive(b, b.session, int64(b.seq), b.payloadLen); err != nil {
		sh.out.send(sinkEvent{kind: sinkEvFail, err: err})
		return
	}
	sh.out.send(sinkEvent{kind: sinkEvFetched, b: b})
}
