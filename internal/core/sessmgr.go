package core

// Session manager: admission control and the per-tenant credit
// scheduler (DESIGN.md §5.3.5).
//
// The sink multiplexes many concurrent sessions onto one shared set of
// data channels and one shared block pool. Three mechanisms keep that
// sharing safe and fair:
//
//   - Admission control bounds concurrency: a SESSION_REQ arriving at
//     Config.MaxSessions either waits in a bounded queue for a slot or
//     is answered SESSION_BUSY (MsgSessionResp + wire.FlagBusy), so an
//     overloaded service degrades by turning tenants away, not by
//     thrashing the ones it accepted.
//
//   - A deficit-round-robin scheduler partitions the adaptive credit
//     window across sessions: each flush sweep deposits weight×quantum
//     into every eligible session's deficit and grants up to that
//     deficit, capped at the session's window share win·wᵢ/Σw. The
//     caps are the per-session memory bound (O(window) blocks total,
//     independent of session count) and, because outstanding credits
//     gate throughput exactly like a transport window, they are also
//     what makes per-tenant rates proportional to weights.
//
//   - Every proactive grant — the initial seed, which rides on the
//     SESSION_RESP itself, and the on-consume and on-free legs through
//     the sweep — is capped at what the session's dataset can still
//     use: the blocks the SESSION_REQ total fills, less those arrived
//     or covered by an outstanding credit (headroom). A one-block file
//     is granted one credit. A total of 0 means unknown and is
//     uncapped; a total the arrivals prove understated lifts the cap
//     for good; a Last block makes it exact. The on-demand answer to an
//     MR_INFO_REQUEST is never capped, so liveness never rests on the
//     hint.
//
//   - Reclaim-on-close returns every granted-but-unlanded block to the
//     pool — but only once no straggling WRITE can still land in it.
//     Normal completion is always safe: the sink acknowledges only once
//     every block up to the Last-flagged one has arrived, the source
//     writes nothing past its last block, and it drops its unused
//     credits when the acknowledgment lands. Aborts carry the
//     source's successful-WRITE count in AssocData; if arrivals at the
//     sink have not caught up to that count yet, the session parks as
//     a zombie until the stragglers drain out of the data CQs, then
//     its remaining blocks are reclaimed in one step.

import (
	"fmt"
	"math"
	"time"

	"rftp/internal/trace"
	"rftp/internal/wire"
)

// pendingOpen is a SESSION_REQ waiting for a session slot.
type pendingOpen struct {
	tok   uint32 // request token, echoed back in SESSION_RESP.Seq
	total int64
	pull  bool // FlagModePull: open directly on the pull path
}

// zombieSession tracks an aborted session whose granted blocks cannot
// all be reclaimed yet: the source's abort confirm (AssocData = its
// successful-WRITE count) may overtake arrival completions still queued
// in the data CQs, and reclaiming a block whose WRITE already landed
// would hand a busy region to another tenant. The zombie absorbs the
// straggling arrivals; once arrived == consumed the remaining owned
// blocks are provably untouched and return to the pool.
type zombieSession struct {
	owned     map[*block]struct{} // granted blocks that never arrived
	arrived   int64               // blocks landed for this session so far
	consumed  int64               // source's successful-WRITE count
	confirmed bool                // the source's abort confirm was seen
}

// handleSessionReq is phase-1 admission: accept, queue, or turn away.
func (k *Sink) handleSessionReq(c *wire.Control) {
	if k.pool == nil {
		k.sendCtrl(&wire.Control{Type: wire.MsgSessionResp, Seq: c.Seq})
		return
	}
	pull := c.Flags&wire.FlagModePull != 0
	if pull && k.cfg.TransferMode == ModePush {
		// Push-only policy: a session asking to open on the pull path is
		// a hard rejection, not a capacity condition.
		k.sendCtrl(&wire.Control{Type: wire.MsgSessionResp, Seq: c.Seq})
		return
	}
	if k.cfg.MaxSessions > 0 && len(k.schedOrder) >= k.cfg.MaxSessions {
		if len(k.openQ) < k.cfg.SessionQueue {
			k.openQ = append(k.openQ, pendingOpen{tok: c.Seq, total: int64(c.AssocData), pull: pull})
			k.Trace.Emit(trace.Event{Cat: trace.CatSession, Name: "session_queued",
				V1: int64(len(k.openQ))})
			k.tel.sessionsQueued.Set(int64(len(k.openQ)))
			return
		}
		k.stats.SessionsRejected++
		k.Trace.Emit(trace.Event{Cat: trace.CatSession, Name: "session_busy",
			V1: k.stats.SessionsRejected})
		k.tel.sessionsRejected.Inc()
		k.sendCtrl(&wire.Control{Type: wire.MsgSessionResp, Flags: wire.FlagBusy, Seq: c.Seq})
		return
	}
	k.admitSession(c.Seq, int64(c.AssocData), pull)
}

// admitSession opens one session. A push session's initial credit
// share rides on the SESSION_RESP; pull sessions take no credits (the
// source's advertisements drive them instead).
func (k *Sink) admitSession(tok uint32, total int64, pull bool) {
	k.nextID++
	sess := &sinkSession{
		info:   SessionInfo{ID: k.nextID, Total: total, BlockSize: k.blockSize},
		ready:  make(map[uint32]*block),
		owned:  make(map[*block]struct{}),
		weight: k.weightFor(k.nextID),
		need:   k.blocksFor(total),
	}
	if pull {
		sess.mode = ModePull
	} else {
		k.pushSessions++
	}
	sess.writer = k.NewWriter(sess.info)
	if os, ok := sess.writer.(OffsetSink); ok && os.OffsetStores() {
		sess.offsetSink = os
		sess.ooo = make(map[uint32]struct{})
	}
	k.Trace.Emit(trace.Event{Cat: trace.CatSession, Name: "session_accept",
		Session: sess.info.ID, V1: sess.info.Total})
	if k.tel.reg != nil {
		sess.telBytes, sess.telBlocks = k.tel.sessionCounters(sess.info.ID)
		sess.telSchedWait = k.tel.sessionSchedWait(sess.info.ID)
	}
	k.sessions[sess.info.ID] = sess
	k.schedOrder = append(k.schedOrder, sess)
	k.tel.sessionsActive.Set(int64(len(k.schedOrder)))
	if k.stats.Start == 0 {
		k.stats.Start = k.ep.Loop.Now()
	}
	if k.OnSessionOpen != nil {
		k.OnSessionOpen(sess.info)
	}
	resp := wire.Control{Type: wire.MsgSessionResp, Flags: wire.FlagAccept,
		Session: sess.info.ID, Seq: tok}
	if !pull {
		// The session is needy until its first grant; if the pool is busy
		// with other tenants, the wait is real scheduler latency.
		sess.needy = true
		sess.needySince = k.ep.Loop.Now()
		got := k.takeCredits(&resp, sess, k.seedSize(sess), grantTraceNames[grantInitial])
		k.tel.grants[grantInitial].Add(int64(got))
	}
	k.sendCtrl(&resp)
}

// seedSize is a session's initial grant under the proactive policy:
// InitialCredits, within its window share and its dataset's headroom.
func (k *Sink) seedSize(sess *sinkSession) int {
	if k.cfg.CreditPolicy != CreditProactive {
		return 0
	}
	return min(k.cfg.InitialCredits, k.sessionCap(sess), k.headroom(sess))
}

// blocksFor is the number of blocks a dataset of total bytes fills;
// 0 (unknown total) leaves the session uncapped.
func (k *Sink) blocksFor(total int64) int64 {
	if total <= 0 {
		return 0
	}
	capacity := int64(k.blockSize - wire.BlockHeaderSize)
	return (total + capacity - 1) / capacity
}

// headroom is how many more proactive credits sess can use: the
// blocks its dataset fills, less those already arrived or covered by
// an outstanding credit. An uncapped session has no limit.
func (k *Sink) headroom(sess *sinkSession) int {
	if sess.need == 0 {
		return math.MaxInt
	}
	return int(sess.need - sess.arrived - int64(sess.granted))
}

// admitQueued drains the admission queue into freed session slots.
func (k *Sink) admitQueued() {
	for len(k.openQ) > 0 && k.failed == nil && !k.closed &&
		(k.cfg.MaxSessions == 0 || len(k.schedOrder) < k.cfg.MaxSessions) {
		req := k.openQ[0]
		k.openQ = k.openQ[1:]
		k.admitSession(req.tok, req.total, req.pull)
	}
	k.tel.sessionsQueued.Set(int64(len(k.openQ)))
}

// weightFor maps a session id onto Config.TenantWeights (round-robin
// over the configured list; empty list = equal weight 1).
func (k *Sink) weightFor(id uint32) int {
	if len(k.cfg.TenantWeights) == 0 {
		return 1
	}
	return k.cfg.TenantWeights[int(id-1)%len(k.cfg.TenantWeights)]
}

// totalWeight sums the active push-path sessions' scheduler weights:
// pull sessions take no credits, so their weight must not dilute the
// window shares of the tenants the scheduler actually feeds.
func (k *Sink) totalWeight() int {
	w := 0
	for _, s := range k.schedOrder {
		if !s.finished && s.mode != ModePull {
			w += s.weight
		}
	}
	return w
}

// sessionCap is one session's share of the credit window — at least
// one block, so every admitted tenant can always make progress. The
// caps bound per-session memory (the shares sum to ~the window,
// independent of session count) and, since outstanding credits gate
// throughput exactly like a transport window, they are what makes
// per-tenant rates proportional to weights.
func (k *Sink) sessionCap(sess *sinkSession) int {
	return k.shareOf(k.targetWindow(), sess.weight, k.totalWeight())
}

func (k *Sink) shareOf(win, weight, totW int) int {
	if totW <= 0 {
		return 1
	}
	c := win * weight / totW
	if c < 1 {
		c = 1
	}
	return c
}

// schedSweep runs one deficit-round-robin sweep over the active
// sessions, granting up to budget credits from the coalescer's pending
// batch, one MR_INFO_RESPONSE per session granted. Each eligible
// session banks weight×quantum of deficit and receives up to that
// deficit, capped at its window share, its dataset's headroom and the
// remaining budget; a session with no room forfeits its deficit
// (classic DRR — an ineligible flow must not bank credit while idle).
// The sweep cursor rotates past the last session granted so a fresh
// batch does not always feed the same tenant first. Returns the
// credits granted; zero means the pool ran dry or no session is
// eligible, and the caller drops the rest of the batch exactly as the
// unbatched protocol dropped grants that found no free block.
func (k *Sink) schedSweep(budget int) int {
	n := len(k.schedOrder)
	if n == 0 || k.pool == nil || budget <= 0 {
		return 0
	}
	win := k.targetWindow()
	totW := k.totalWeight()
	if totW == 0 {
		return 0
	}
	quantum := budget / totW
	if quantum < 1 {
		quantum = 1
	}
	granted, last := 0, -1
	for i := 0; i < n && granted < budget; i++ {
		idx := (k.nextRR + i) % n
		sess := k.schedOrder[idx]
		if sess.finished || sess.mode == ModePull {
			continue
		}
		room := min(k.shareOf(win, sess.weight, totW)-sess.granted, k.headroom(sess))
		if room <= 0 {
			sess.deficit = 0
			continue
		}
		sess.deficit += sess.weight * quantum
		got := k.sendGrantTo(sess, min(sess.deficit, room, budget-granted), "grant_flush")
		if got == 0 {
			break // pool dry
		}
		sess.deficit -= got
		granted += got
		last = idx
	}
	if last >= 0 {
		k.nextRR = (last + 1) % n
	}
	return granted
}

// reclaimOwned returns a retired session's granted-but-unlanded blocks
// to the pool, attributing each to the owning session's ledger. Only
// call once no WRITE can still land in them (see zombieSession).
// Returns the number of blocks reclaimed.
// dropOwned removes b from sess's grant ledger, reversing the
// grant-side accounting. Blocks normally leave the ledger at
// markArrived; this covers teardown paths that recycle a block still
// on the ledger (e.g. one parked in reassembly), so the later
// owned-reclaim pass cannot double-recycle it.
func (k *Sink) dropOwned(sess *sinkSession, b *block) {
	if _, ok := sess.owned[b]; !ok {
		return
	}
	delete(sess.owned, b)
	k.settleCredit(b)
	if sess.granted > 0 {
		sess.granted--
	}
	k.tel.granted.Set(int64(k.granted))
}

func (k *Sink) reclaimOwned(id uint32, owned map[*block]struct{}) int {
	n := 0
	for b := range owned {
		k.settleCredit(b)
		k.stats.CreditsReclaimed++
		k.pool.recycle(b)
		n++
	}
	if n > 0 {
		k.Trace.Emit(trace.Event{Cat: trace.CatCredit, Name: "credits_reclaimed",
			Session: id, V1: int64(n), V2: int64(k.granted)})
		k.tel.granted.Set(int64(k.granted))
		// Queued fetches that found the pool granted away go first: each
		// is a block the source already holds loaded and exposed.
		k.pumpFetches()
	}
	return n
}

// zombieArrival retires an arrival for a session that is already torn
// down: a WRITE that raced the teardown. The block recycles without
// delivery; an arrival no zombie expects is a protocol violation.
func (k *Sink) zombieArrival(b *block) {
	z := k.zombies[b.session]
	if z == nil {
		k.fail(fmt.Errorf("%w: block for unknown session %d", ErrProtocol, b.session))
		return
	}
	delete(z.owned, b)
	z.arrived++
	k.stats.CreditsReclaimed++
	k.pool.recycle(b)
	k.maybeReapZombie(b.session, z)
}

// maybeReapZombie reclaims a zombie's remaining blocks once the
// source's confirm arrived and every WRITE it reported has landed.
// The freed blocks re-enter circulation through the coalescer so a
// teardown does not shrink the working pool for surviving tenants.
func (k *Sink) maybeReapZombie(id uint32, z *zombieSession) {
	if !z.confirmed || z.arrived < z.consumed {
		return
	}
	delete(k.zombies, id)
	k.regrant(k.reclaimOwned(id, z.owned))
}

// handleAbort processes MsgAbort: connection-fatal when Session is 0,
// otherwise a single-session teardown. AssocData carries the source's
// successful-WRITE count for the session (its drain confirm), which
// decides whether reclaim is safe now or must wait for stragglers.
func (k *Sink) handleAbort(c *wire.Control) {
	if c.Session == 0 {
		k.fail(ErrAborted)
		return
	}
	if sess, ok := k.sessions[c.Session]; ok {
		// Source-initiated abort, sent only after the source drained its
		// in-flight WRITEs. If every write it made already landed here,
		// reclaim inline; otherwise park a zombie for the stragglers
		// still queued in the data CQs.
		consumed := int64(c.AssocData)
		if sess.arrived >= consumed {
			k.finishSession(sess, ErrAborted, true)
		} else {
			k.finishSession(sess, ErrAborted, false)
			if z := k.zombies[c.Session]; z != nil {
				z.confirmed = true
				z.consumed = consumed
				k.maybeReapZombie(c.Session, z)
			}
		}
		return
	}
	if z := k.zombies[c.Session]; z != nil && !z.confirmed {
		// The source's drain confirm for a session we aborted first.
		z.confirmed = true
		z.consumed = int64(c.AssocData)
		k.maybeReapZombie(c.Session, z)
	}
	// Otherwise: a crossed teardown already fully resolved — ignore.
}

// noteNeedy stamps the instant a live session ran out of outstanding
// credits: from here until the scheduler feeds it again, the tenant is
// waiting on a scheduling slot, not on memory, storage, or the wire.
func (k *Sink) noteNeedy(sess *sinkSession, now time.Duration) {
	if sess.needy || sess.haveLast || sess.finished || sess.mode == ModePull {
		return
	}
	sess.needy = true
	sess.needySince = now
}

// chargeSchedWait closes an open needy interval, attributing the wait
// to the session's stall_sched_wait_ns counter (picked up by
// spans.TopStall through the per-session registry subtree).
func (k *Sink) chargeSchedWait(sess *sinkSession, now time.Duration) {
	if !sess.needy {
		return
	}
	sess.needy = false
	if d := now - sess.needySince; d > 0 && sess.telSchedWait != nil {
		sess.telSchedWait.Add(int64(d))
	}
}
