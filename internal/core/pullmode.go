package core

// Pull-mode data path (DESIGN.md §5.3.6): the mirror image of the
// paper's push protocol. Instead of the sink granting credits and the
// source issuing RDMA WRITEs, the source advertises loaded blocks
// (MsgBlockAdvert names the region, sequence, offset and length) and
// the sink fetches them with one-sided RDMA READs, bounded by
// MaxRDAtomic per data QP. A READ_DONE notification recycles the
// advertised block at the source.
//
// The advertise pipeline is bounded by the same rateWindow estimator
// that sizes the push credit window, fed from this side: the
// advert→READ_DONE round trip is the offer round trip, READ_DONE
// arrivals are the delivery-rate signal, and the depth term is the load
// pipeline.
//
// The hybrid controller switches each session between the two paths at
// run time — pull when the source host is busy (the per-block
// data-path work moves to the receiver, which is the RFP argument),
// push otherwise — via a mode-change handshake that drains in-flight
// blocks on both sides so no block is lost or duplicated.

import (
	"errors"
	"fmt"

	"rftp/internal/trace"
	"rftp/internal/verbs"
	"rftp/internal/wire"
)

// Hybrid-controller constants: the load-probe hysteresis band, the
// minimum blocks between switches (handshakes cost a round trip and a
// pipeline drain), the goodput-estimator epoch, and the rate margin at
// which measured throughput overrides the load heuristic.
const (
	pullLoadHi          = 0.75
	pullLoadLo          = 0.5
	modeSwitchMinBlocks = 32
	modeRateEpoch       = 16
	modeRateMargin      = 1.25
)

// probeLoad samples the configured CPU-load probe, clamped to [0, 1].
func (s *Source) probeLoad() float64 {
	if s.cfg.LoadProbe == nil {
		return 0
	}
	l := s.cfg.LoadProbe()
	if l < 0 {
		return 0
	}
	if l > 1 {
		return 1
	}
	return l
}

// initialMode picks a new session's starting data path. Hybrid
// sessions consult the load probe once at open so a session born under
// load starts in pull instead of paying for a switch immediately.
func (s *Source) initialMode() TransferMode {
	switch s.cfg.TransferMode {
	case ModePull:
		return ModePull
	case ModeHybrid:
		if s.probeLoad() >= pullLoadHi {
			return ModePull
		}
	}
	return ModePush
}

// advertWindow bounds outstanding advertisements across all sessions.
func (s *Source) advertWindow() int {
	return s.advWin.blocks(s.cfg.IODepth, s.cfg.LoadDepth)
}

// postAdverts drains pull-mode sessions' loaded queues into block
// advertisements, bounded by the adaptive advertise window.
func (s *Source) postAdverts() { s.advertSweep.run(&s.rrSessions) }

func (s *Source) tryAdvert(sess *srcSession) step {
	if sess.mode != ModePull || sess.switching || sess.aborting || sess.loadedQ.Len() == 0 {
		return stepSkip
	}
	if s.advertCount >= s.advertWindow() {
		return stepBlocked // window full; READ_DONEs will re-pump
	}
	b, _ := sess.loadedQ.Pop()
	sess.queued--
	s.advertise(sess, b)
	return stepTook
}

// advertise exposes one loaded block to remote READs: the header is
// encoded into the region (READs fetch header and payload in one
// operation, exactly like a WRITE carries them) and the advertisement
// names the region on the control QP.
func (s *Source) advertise(sess *srcSession, b *block) {
	hdr := wire.BlockHeader{
		Session: b.session, Seq: b.seq, Offset: b.offset,
		PayloadLen: uint32(b.payloadLen), Last: b.last,
	}
	wire.EncodeBlockHeader(b.mr.Buf, hdr)
	b.setState(BlockAdvertised)
	b.tPost = s.ep.Loop.Now()
	if sess.advertised == nil {
		sess.advertised = make(map[uint32]*block)
	}
	sess.advertised[b.seq] = b
	s.advertCount++
	s.stats.Adverts++
	s.tel.advertsPosted.Inc()
	s.tel.advertsOutstanding.Set(int64(s.advertCount))
	var flags uint8
	if b.last {
		flags |= wire.FlagLastBlock
	}
	s.Trace.Emit(trace.Event{Cat: trace.CatBlock, Name: "advertised",
		Session: b.session, Block: b.seq, V1: int64(b.payloadLen)})
	s.sendCtrl(&wire.Control{
		Type: wire.MsgBlockAdvert, Flags: flags,
		Session: b.session, Seq: b.seq,
		Addr: b.mr.Addr, RKey: b.mr.RKey,
		Length: uint32(b.payloadLen), AssocData: b.offset,
	})
}

// handleReadDone recycles an advertised block the sink finished
// READing. FlagAccept distinguishes a delivered block from one the
// sink discarded against a dead session (recycled without counting).
func (s *Source) handleReadDone(c *wire.Control) {
	sess := s.sessions[c.Session]
	if sess == nil {
		return // teardown crossed the notification on the wire
	}
	b := sess.advertised[c.Seq]
	if b == nil {
		return
	}
	if b.mr.RKey != c.RKey {
		s.fail(fmt.Errorf("%w: READ_DONE rkey %d does not match advertised block %d/%d (rkey %d)",
			ErrProtocol, c.RKey, c.Session, c.Seq, b.mr.RKey))
		return
	}
	delete(sess.advertised, c.Seq)
	s.advertCount--
	s.stats.ReadsDone++
	now := s.ep.Loop.Now()
	if c.Flags&wire.FlagAccept != 0 {
		s.advWin.sample(now, now-b.tPost)
		s.delivered(sess, b, now)
	}
	s.tel.advertsOutstanding.Set(int64(s.advertCount))
	s.tel.postLatency.Observe(int64(now - b.tPost))
	s.retire(sess, b)
}

// noteModeProgress feeds one completed block into the per-mode goodput
// estimator (epoch mean folded into an EWMA) and lets the hybrid
// controller reconsider the session's mode at each epoch boundary.
func (s *Source) noteModeProgress(sess *srcSession) {
	if s.cfg.TransferMode != ModeHybrid || sess.aborting || sess.acked {
		return
	}
	n, elapsed, closed := sess.rateEpoch.tick(s.ep.Loop.Now(), modeRateEpoch)
	if !closed {
		return
	}
	if elapsed > 0 {
		rate := float64(n) / elapsed.Seconds()
		i := 0
		if sess.mode == ModePull {
			i = 1
		}
		if sess.modeRate[i] == 0 {
			sess.modeRate[i] = rate
		} else {
			sess.modeRate[i] += (rate - sess.modeRate[i]) / 2
		}
	}
	s.maybeSwitchMode(sess)
}

// maybeSwitchMode is the hybrid controller's decision point: the load
// probe picks the mode with hysteresis (≥ pullLoadHi → pull,
// ≤ pullLoadLo → push), and the per-mode goodput estimators override
// it when the other mode's measured rate is decisively better.
func (s *Source) maybeSwitchMode(sess *srcSession) {
	if sess.switching || sess.aborting || sess.acked {
		return
	}
	if sess.blocks-sess.lastSwitchBlocks < modeSwitchMinBlocks {
		return
	}
	want := sess.mode
	load := s.probeLoad()
	if load >= pullLoadHi {
		want = ModePull
	} else if load <= pullLoadLo {
		want = ModePush
	}
	cur, other := 0, 1
	if sess.mode == ModePull {
		cur, other = 1, 0
	}
	if sess.modeRate[cur] > 0 && sess.modeRate[other] > modeRateMargin*sess.modeRate[cur] {
		if sess.mode == ModePull {
			want = ModePush
		} else {
			want = ModePull
		}
	}
	if want != sess.mode {
		s.initiateModeSwitch(sess, want)
	}
}

// initiateModeSwitch starts the mode-change handshake: stop feeding
// the old path, drain its in-flight blocks, then tell the sink the
// cumulative block count so it can reconcile before flipping.
func (s *Source) initiateModeSwitch(sess *srcSession, want TransferMode) {
	sess.switching = true
	sess.pendingMode = want
	sess.stalled = false
	s.Trace.Emit(trace.Event{Cat: trace.CatSession, Name: "mode_switch_start",
		Session: sess.id, V1: int64(want), V2: sess.blocks})
	s.maybeSendSwitchReq(sess)
}

// maybeSendSwitchReq sends the switch request once the outgoing path
// is drained: no WRITE in flight (→ pull) or no advertisement
// outstanding (→ push). postWrites/postAdverts both skip switching
// sessions, so the drain is monotone.
func (s *Source) maybeSendSwitchReq(sess *srcSession) {
	if !sess.switching || sess.switchReqSent {
		return
	}
	if sess.pendingMode == ModePull && sess.inflight > 0 {
		return
	}
	if sess.pendingMode == ModePush && len(sess.advertised) > 0 {
		return
	}
	sess.switchReqSent = true
	var flags uint8
	if sess.pendingMode == ModePull {
		flags |= wire.FlagModePull
	}
	// AssocData is the cumulative completed-block count: the sink holds
	// the flip until its arrivals match, so a straggling completion can
	// never land after its region was reclaimed.
	s.sendCtrl(&wire.Control{Type: wire.MsgModeSwitchReq, Flags: flags,
		Session: sess.id, AssocData: uint64(sess.blocks)})
}

// handleModeSwitchAck completes (or abandons, if the sink refused) the
// mode-change handshake.
func (s *Source) handleModeSwitchAck(c *wire.Control) {
	sess := s.sessions[c.Session]
	if sess == nil || !sess.switching {
		return
	}
	sess.switching = false
	sess.switchReqSent = false
	sess.lastSwitchBlocks = sess.blocks
	if c.Flags&wire.FlagAccept == 0 {
		// Refused (push-only sink policy): stay in the current mode.
		s.Trace.Emit(trace.Event{Cat: trace.CatSession, Name: "mode_switch_refused",
			Session: sess.id})
		s.pump()
		return
	}
	if sess.pendingMode == ModePull {
		// The sink reclaimed the session's granted blocks when it
		// processed the request; our stash copies are dead.
		s.dropCredits(sess)
	}
	sess.mode = sess.pendingMode
	s.stats.ModeSwitches++
	s.tel.modeSwitches.Inc()
	s.Trace.Emit(trace.Event{Cat: trace.CatSession, Name: "mode_switch_done",
		Session: sess.id, V1: int64(sess.mode), V2: sess.blocks})
	s.pump()
}

// fetchAdvert is one advertisement queued at the sink awaiting a free
// block and a READ slot.
type fetchAdvert struct {
	seq        uint32
	addr       uint64
	rkey       uint32
	payloadLen uint32
	offset     uint64
	last       bool
}

// handleAdvert queues a block advertisement for fetching.
func (k *Sink) handleAdvert(c *wire.Control) {
	if k.pool == nil {
		k.fail(fmt.Errorf("%w: block advert before negotiation", ErrProtocol))
		return
	}
	sess := k.sessions[c.Session]
	if sess == nil || sess.finished {
		// Advert racing a teardown: nothing to fetch into, but the
		// source's drain must not wedge — answer unaccepted so it
		// recycles the block.
		k.sendCtrl(&wire.Control{Type: wire.MsgReadDone, Session: c.Session, Seq: c.Seq, RKey: c.RKey})
		return
	}
	k.stats.Adverts++
	sess.fetchQ.Push(fetchAdvert{
		seq: c.Seq, addr: c.Addr, rkey: c.RKey,
		payloadLen: c.Length, offset: c.AssocData,
		last: c.Flags&wire.FlagLastBlock != 0,
	})
	k.Trace.Emit(trace.Event{Cat: trace.CatBlock, Name: "advert_recv",
		Session: c.Session, Block: c.Seq, V1: int64(c.Length)})
	k.pumpFetches()
}

// pumpFetches pairs queued advertisements with free blocks and READ
// slots and posts each fetch. The per-channel bound is the QP's
// initiator depth (MaxRDAtomic), striping READs across channels the
// way postWrites stripes WRITEs.
func (k *Sink) pumpFetches() {
	if k.pool == nil || k.failed != nil || k.closed {
		return
	}
	k.fetchSweep.run(&k.schedOrder)
}

func (k *Sink) tryFetch(sess *sinkSession) step {
	if sess.finished || sess.fetchQ.Len() == 0 {
		return stepSkip
	}
	// Channel before block, so a full wire never strands memory.
	ch := pickChannel(&k.nextReadCh, k.chReads, k.ep.readDepth)
	if ch < 0 {
		return stepBlocked // every channel at initiator depth
	}
	b := k.pool.get()
	if b == nil {
		return stepBlocked // pool dry; a store completion will re-pump
	}
	adv, _ := sess.fetchQ.Pop()
	k.issueFetch(sess, b, adv, ch)
	return stepTook
}

// issueFetch commits one advertisement to a block and channel (free →
// fetching) and posts the READ.
func (k *Sink) issueFetch(sess *sinkSession, b *block, adv fetchAdvert, ch int) {
	b.setState(BlockFetching)
	b.session = sess.info.ID
	b.seq = adv.seq
	b.offset = adv.offset
	b.payloadLen = int(adv.payloadLen)
	b.last = adv.last
	// The advertised remote region rides in the credit field: either
	// way it is "the remote memory this block pairs with".
	b.credit = wire.Credit{Addr: adv.addr, RKey: adv.rkey, Len: adv.payloadLen}
	b.chIdx = ch
	b.tAcq = k.ep.Loop.Now()
	b.spans.SetKey(b.spanRef, b.session, b.seq)
	k.chReads[ch]++
	k.readsInflight++
	k.tel.readsPosted.Inc()
	k.tel.readsInflight.Set(int64(k.readsInflight))
	k.postRead(b)
}

// postRead issues one pull-mode RDMA READ. The block is in Fetching
// state with the advertised remote region in its credit field and the
// channel already chosen (within the per-channel initiator depth).
func (k *Sink) postRead(b *block) {
	wr := &k.rdWR
	*wr = verbs.SendWR{
		WRID:    uint64(b.idx),
		Op:      verbs.OpRead,
		Remote:  wire2remote(b.credit),
		Local:   b.mr,
		ReadLen: wire.BlockHeaderSize + b.payloadLen,
	}
	if err := k.ep.Data[b.chIdx].PostSend(wr); err != nil {
		b.setState(BlockFree)
		if !k.closed {
			k.readReverted(b, err)
		}
		return
	}
	b.spans.SetChannel(b.spanRef, b.chIdx)
	k.Trace.Emit(trace.Event{Cat: trace.CatBlock, Name: "read_posted",
		Session: b.session, Block: b.seq, Channel: int32(b.chIdx), V1: int64(b.payloadLen)})
	if k.tel.reg != nil {
		b.tPost = k.ep.Loop.Now()
	}
}

// readReverted undoes issueFetch's accounting for a READ that could
// not be posted. A momentarily full send queue requeues the
// advertisement; anything else is fatal for the connection.
func (k *Sink) readReverted(b *block, err error) {
	k.chReads[b.chIdx]--
	k.readsInflight--
	k.tel.readsInflight.Set(int64(k.readsInflight))
	adv := fetchAdvert{seq: b.seq, addr: b.credit.Addr, rkey: b.credit.RKey,
		payloadLen: uint32(b.payloadLen), offset: b.offset, last: b.last}
	sessID := b.session
	k.pool.put(b)
	if !errors.Is(err, verbs.ErrSendQueueFull) {
		k.fail(fmt.Errorf("core: posting READ: %w", err))
		return
	}
	if sess := k.sessions[sessID]; sess != nil && !sess.finished {
		sess.fetchQ.PushFront(adv)
	}
}

// readWC takes a completed READ: the fetched header must name the same
// session, sequence, and length as the advertisement the block was
// stamped from.
func (k *Sink) readWC(wc verbs.WC) {
	if k.pool == nil {
		return
	}
	b := k.pool.byIdx(int(wc.WRID))
	if b == nil || b.state != BlockFetching {
		return // stale completion after failure handling
	}
	if err := k.arrive(b, b.session, int64(b.seq), b.payloadLen); err != nil {
		k.fail(err)
		return
	}
	k.readArrived(b)
}

// readArrived is the control-plane half of a READ completion: settle
// the READ ledger and notify the source, then the shared accept feeds
// reassembly and delivery exactly as a pushed block would.
func (k *Sink) readArrived(b *block) {
	k.chReads[b.chIdx]--
	k.readsInflight--
	k.stats.ReadsDone++
	k.tel.readsInflight.Set(int64(k.readsInflight))
	sess := k.sessions[b.session]
	if sess == nil || sess.finished {
		// The session died while the READ was in flight: recycle the
		// block and answer unaccepted so the source's drain completes.
		k.sendCtrl(&wire.Control{Type: wire.MsgReadDone, Session: b.session, Seq: b.seq, RKey: b.credit.RKey})
		k.pool.recycle(b)
		k.pumpFetches()
		return
	}
	k.sendCtrl(&wire.Control{Type: wire.MsgReadDone, Flags: wire.FlagAccept,
		Session: b.session, Seq: b.seq, RKey: b.credit.RKey})
	if _, ok := k.accept(sess, b); !ok {
		return
	}
	k.feedWriter(sess)
	k.pumpFetches()
	k.noteStall()
}

// handleModeSwitch processes the source's push<->pull switch request.
// To pull: once arrivals match the source's cumulative count, reclaim
// the session's granted-but-unlanded blocks (the source stopped
// consuming credits before asking) and flip. To push: the source
// drained its advertisements first — every READ_DONE is ahead of the
// request on the control QP — so the fetch pipeline is already empty;
// flip and restart the credit feed.
func (k *Sink) handleModeSwitch(c *wire.Control) {
	sess := k.sessions[c.Session]
	if sess == nil || sess.finished {
		return // teardown crossed the request; the abort reconciles
	}
	toPull := c.Flags&wire.FlagModePull != 0
	if toPull && k.cfg.TransferMode == ModePush {
		// Push-only policy: never expose the pull path; the source
		// stays in push.
		k.sendCtrl(&wire.Control{Type: wire.MsgModeSwitchAck,
			Session: sess.info.ID, AssocData: uint64(sess.arrived)})
		return
	}
	if toPull {
		if sess.arrived < int64(c.AssocData) {
			// Straggling WRITE completions are still queued in the data
			// CQs; finish the switch when arrivals catch up.
			sess.pendingSwitchToPull = true
			sess.pendingSwitchCount = int64(c.AssocData)
			return
		}
		k.completeSwitchToPull(sess)
		return
	}
	if sess.mode == ModePull {
		sess.mode = ModePush
		k.pushSessions++
	}
	k.stats.ModeSwitches++
	k.Trace.Emit(trace.Event{Cat: trace.CatSession, Name: "mode_switch_push",
		Session: sess.info.ID, V1: sess.arrived})
	k.sendCtrl(&wire.Control{Type: wire.MsgModeSwitchAck, Flags: wire.FlagAccept,
		Session: sess.info.ID, AssocData: uint64(sess.arrived)})
	k.grantCredits(sess, k.seedSize(sess), grantInitial)
}

// completeSwitchToPull reclaims the session's granted blocks and flips
// it to the pull path. Safe only once the source's reported write
// count has been matched by arrivals (see handleModeSwitch).
func (k *Sink) completeSwitchToPull(sess *sinkSession) {
	sess.pendingSwitchToPull = false
	n := k.reclaimOwned(sess.info.ID, sess.owned)
	sess.owned = make(map[*block]struct{})
	sess.granted = 0
	if sess.mode == ModePush {
		sess.mode = ModePull
		k.pushSessions--
	}
	k.stats.ModeSwitches++
	k.regrant(n) // the reclaimed blocks go to the remaining push tenants
	k.Trace.Emit(trace.Event{Cat: trace.CatSession, Name: "mode_switch_pull",
		Session: sess.info.ID, V1: sess.arrived, V2: int64(n)})
	k.sendCtrl(&wire.Control{Type: wire.MsgModeSwitchAck, Flags: wire.FlagAccept | wire.FlagModePull,
		Session: sess.info.ID, AssocData: uint64(sess.arrived)})
}
