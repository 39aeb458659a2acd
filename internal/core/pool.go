package core

import (
	"fmt"
	"time"

	"rftp/internal/invariant"
	"rftp/internal/spans"
	"rftp/internal/verbs"
	"rftp/internal/wire"
)

// BlockState is the FSM state of a buffer block (Figure 6).
type BlockState uint8

// Block states. The source cycle is Free → Loading → Loaded → Sending →
// Waiting → Free; the sink cycle is Free → Waiting → DataReady → Free
// (Storing is the explicit "application consuming the payload" stage).
const (
	BlockFree BlockState = iota
	BlockLoading
	BlockLoaded
	BlockSending
	BlockWaiting
	BlockDataReady
	BlockStoring
	// BlockAdvertised is the pull-mode source stage: the loaded block's
	// region has been advertised to the sink and is exposed to remote
	// READs until the READ_DONE notification recycles it.
	BlockAdvertised
	// BlockFetching is the pull-mode sink stage: a free block paired with
	// an advertisement while the RDMA READ is in flight.
	BlockFetching
)

func (s BlockState) String() string {
	switch s {
	case BlockFree:
		return "free"
	case BlockLoading:
		return "loading"
	case BlockLoaded:
		return "loaded"
	case BlockSending:
		return "sending"
	case BlockWaiting:
		return "waiting"
	case BlockDataReady:
		return "data-ready"
	case BlockStoring:
		return "storing"
	case BlockAdvertised:
		return "advertised"
	case BlockFetching:
		return "fetching"
	default:
		return fmt.Sprintf("BlockState(%d)", uint8(s))
	}
}

// validNext enumerates the legal FSM transitions. It is consulted on
// every transition; an illegal transition panics, because it is always a
// protocol-implementation bug, never a runtime condition.
var validNext = map[BlockState][]BlockState{
	BlockFree:    {BlockLoading, BlockWaiting, BlockFetching},
	BlockLoading: {BlockLoaded, BlockFree},
	// Loaded → Free is the source's abort shortcut: when a session is
	// torn down mid-transfer its queued (loaded-but-unsent) blocks are
	// recycled without ever being posted. Loaded → Advertised is the
	// pull-mode path: the block is exposed for remote READs instead of
	// being paired with a credit and written.
	BlockLoaded:  {BlockSending, BlockFree, BlockAdvertised},
	BlockSending: {BlockWaiting, BlockLoaded},
	BlockWaiting: {BlockFree, BlockLoaded, BlockDataReady},
	// DataReady → Free is the sink's abort shortcut: a finished or
	// failed session recycles blocks that never reached Storing.
	BlockDataReady: {BlockStoring, BlockFree},
	BlockStoring:   {BlockFree},
	// An advertised block recycles on READ_DONE (or on abort: a remote
	// READ only reads, so teardown may reclaim immediately).
	BlockAdvertised: {BlockFree},
	// Fetching → Free is the sink's discard path for READs that complete
	// after their session died.
	BlockFetching: {BlockDataReady, BlockFree},
}

// block is one buffer block and its registered memory region. The first
// wire.BlockHeaderSize bytes of the region hold the header; the rest is
// payload (real or modeled).
type block struct {
	idx   int
	state BlockState
	mr    *verbs.MR
	// hdrBuf carries the header for modeled payloads (real payloads
	// encode the header directly into mr.Buf).
	hdrBuf [wire.BlockHeaderSize]byte

	// Source-side bookkeeping.
	session    uint32
	seq        uint32
	offset     uint64
	payloadLen int
	last       bool
	retries    int
	credit     wire.Credit // the remote region the block was written to
	chIdx      int         // data channel the block was posted on

	// Telemetry timestamps, stamped only while telemetry is attached.
	// Source: tAcq = load start, tReady = loaded, tPost = WRITE posted.
	// Sink: tAcq = credit granted, tReady = store issued.
	tAcq, tReady, tPost time.Duration

	// Lifecycle span recording (nil/RefNone when spans are detached or
	// this lifecycle is unsampled). Stamped exclusively by setState so
	// the span table can never disagree with the FSM; rftplint's
	// fsmtransition pass enforces that no other call site exists.
	spans   *spans.Recorder
	spanRef spans.Ref
}

func (b *block) setState(to BlockState) {
	for _, ok := range validNext[b.state] {
		if ok == to {
			from := b.state
			b.state = to
			if b.spans != nil {
				b.spanRef = b.spans.Transition(b.spanRef, uint8(from), uint8(to))
			}
			return
		}
	}
	panic(fmt.Sprintf("core: illegal block transition %v -> %v (block %d)", b.state, to, b.idx))
}

// pool is a set of blocks with registered MRs.
type pool struct {
	blocks  []*block
	free    []*block // LIFO free list
	cache   *verbs.MRCache
	modeled bool
}

// newPool registers nblocks regions of blockSize bytes on dev. Modeled
// pools back each block with a shadow of just the header plus slack.
// With a non-nil cache the registrations come from the pin-down cache
// (reusing idle regions from earlier pools of the same size class) and
// return to it on release.
func newPool(dev verbs.Device, pd *verbs.PD, nblocks, blockSize int, modeled bool, access verbs.Access, cache *verbs.MRCache) (*pool, error) {
	p := &pool{cache: cache, modeled: modeled}
	for i := 0; i < nblocks; i++ {
		var mr *verbs.MR
		var err error
		switch {
		case cache != nil:
			mr, err = cache.Get(pd, blockSize, wire.BlockHeaderSize, access, modeled)
		case modeled:
			mr, err = dev.RegisterModelMR(pd, blockSize, wire.BlockHeaderSize, access)
		default:
			mr, err = dev.RegisterMR(pd, make([]byte, blockSize), access)
		}
		if err != nil {
			return nil, fmt.Errorf("core: registering block %d: %w", i, err)
		}
		b := &block{idx: i, mr: mr, spanRef: spans.RefNone}
		invariant.PoisonFill(b.mr.Buf) // free blocks carry the poison pattern
		p.blocks = append(p.blocks, b)
		p.free = append(p.free, b)
	}
	return p, nil
}

// release returns the pool's registrations to the pin-down cache at
// teardown (no-op for uncached pools). Only free blocks are eligible:
// a region that may still have a WRITE in flight (granted to a remote
// source, posted on the wire) must never re-enter the cache, and the
// debug build asserts that with the connection's inflight-MR ledger.
func (p *pool) release(inv uint64) {
	if p.cache == nil {
		return
	}
	for _, b := range p.blocks {
		if b.state != BlockFree || b.mr == nil {
			continue
		}
		invariant.MRReleasable(inv, b.mr.RKey)
		p.cache.Put(b.mr, p.modeled)
		b.mr = nil
	}
	p.free = nil
}

// get pops a free block (nil when exhausted).
func (p *pool) get() *block {
	if len(p.free) == 0 {
		return nil
	}
	b := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	// A free block's region must be untouched since put poisoned it: a
	// write while free means a stale zero-copy reference survived.
	invariant.PoisonCheck(b.mr.Buf)
	return b
}

// put returns a block to the free list. The caller must already have
// transitioned it to BlockFree.
func (p *pool) put(b *block) {
	if b.state != BlockFree {
		panic(fmt.Sprintf("core: putting non-free block %d (%v)", b.idx, b.state))
	}
	b.session, b.seq, b.offset, b.payloadLen, b.last, b.retries = 0, 0, 0, 0, false, 0
	b.credit = wire.Credit{}
	b.chIdx = 0
	invariant.PoisonFill(b.mr.Buf)
	p.free = append(p.free, b)
}

// recycle retires a block through the FSM and returns it to the free
// list.
func (p *pool) recycle(b *block) {
	b.setState(BlockFree)
	p.put(b)
}

// byIdx returns the block with the given index.
func (p *pool) byIdx(i int) *block {
	if i < 0 || i >= len(p.blocks) {
		return nil
	}
	return p.blocks[i]
}

// byRKey finds the block whose MR has the given rkey.
func (p *pool) byRKey(rkey uint32) *block {
	for _, b := range p.blocks {
		if b.mr.RKey == rkey {
			return b
		}
	}
	return nil
}

// countState returns how many blocks are in the given state.
func (p *pool) countState(s BlockState) int {
	n := 0
	for _, b := range p.blocks {
		if b.state == s {
			n++
		}
	}
	return n
}
