package core

import (
	"fmt"
	"slices"
	"time"

	"rftp/internal/invariant"
	"rftp/internal/ringq"
	"rftp/internal/spans"
	"rftp/internal/telemetry"
	"rftp/internal/trace"
	"rftp/internal/verbs"
	"rftp/internal/wire"
)

// SessionInfo describes a session the sink accepted.
type SessionInfo struct {
	ID uint32
	// Total is the advisory dataset size from SESSION_REQ (0 = unknown).
	Total int64
	// BlockSize is the negotiated block size.
	BlockSize int
}

// Sink is the data-sink side of the protocol: it accepts negotiation,
// owns the receive block pool, pushes credits proactively, reassembles
// out-of-order blocks by (session, sequence), and delivers an in-order
// stream to a BlockSink per session.
type Sink struct {
	ep  *Endpoint
	cfg Config

	// NewWriter supplies the per-session consumer. Defaults to
	// DiscardSink.
	NewWriter func(SessionInfo) BlockSink
	// OnSessionOpen observes each admitted session, fired as the accept
	// is queued — the counterpart of OnSessionDone for admission-control
	// auditing (who got in, when, at what weight).
	OnSessionOpen func(SessionInfo)
	// OnSessionDone observes each finished session.
	OnSessionDone func(SessionInfo, TransferResult)
	// OnError observes fatal connection-level failures.
	OnError func(error)
	// Trace, when set, records protocol events into a ring buffer.
	Trace *trace.Ring
	// tel holds resolved metric handles; all nil (and tel.reg nil) while
	// telemetry is detached (see AttachTelemetry).
	tel sinkTelemetry
	// spans/stalls hold the lifecycle span recorder and the stall
	// attributor (see AttachSpans). The recorder is built lazily at
	// pool creation from spanReg/spanSample.
	spans      *spans.Recorder
	stalls     *spans.StallTracker
	spanReg    *telemetry.Registry
	spanSample int

	pool       *pool                 // allocated when block size is negotiated
	chOf       map[verbs.QPID]int    // data QP id → channel index (read-only)
	rdWR       verbs.SendWR          // reused READ WR (PostSend copies)
	stores     ioTasks[*sinkSession] // store completion carriers
	flushFn    func()                // prebound flush-timer callback
	blockSize  int
	immMode    bool     // WRITE WITH IMMEDIATE notifications negotiated
	granted    int      // credits outstanding at the source, all sessions
	pendingReq []uint32 // sessions whose MR_INFO_REQUEST awaits a free block
	// grantScratch holds the credits of the grant being built; sending
	// encodes them before it returns, so the next grant reuses it.
	grantScratch []wire.Credit

	// Session manager (sessmgr.go): admission control and the
	// per-tenant credit scheduler. schedOrder is the DRR sweep order;
	// nextRR rotates which session a fresh batch feeds first. openQ
	// holds SESSION_REQs waiting for a slot; zombies holds aborted
	// sessions whose granted blocks cannot be reclaimed until their
	// straggling WRITEs drain.
	schedOrder []*sinkSession
	nextRR     int
	openQ      []pendingOpen
	zombies    map[uint32]*zombieSession

	// Credit coalescer: proactive grants accumulate here and flush as
	// one MR_INFO_RESPONSE when the batch reaches Config.CreditBatch,
	// the source's outstanding credits fall below the low watermark, or
	// the flush timer fires. pendingByReason keeps per-policy-leg
	// attribution for telemetry.
	pendingGrant    int
	pendingByReason [grantReasons]int
	flushArmed      bool // a flush timer is outstanding

	// win estimates the credit window from the grant→arrival round trip
	// and the block arrival rate.
	win rateWindow
	// winBoost ratchets the window up on each explicit MR_INFO_REQUEST:
	// a starving source is ground truth that the BDP estimate ran below
	// the pipeline's real depth (the credit round trip only measures
	// queueing that the current window allows to exist).
	winBoost int
	// stallDepth is the highest granted+pending level at which the
	// source has recently starved (sent an explicit MR_INFO_REQUEST).
	// Under explicit completion notification, granted includes blocks
	// whose notification is still in flight, so the source's true
	// runway is smaller than granted suggests; a stall at level g
	// proves the effective pipeline depth is at least g, and batching
	// only above that level is safe. Not sticky: accept decays it every
	// arrival epoch (the reasons are there).
	stallDepth int

	// Pull-mode fetch pipeline (pullmode.go): outstanding READs per data
	// channel (bounded by the QP initiator depth, ep.readDepth), their
	// total, the channel cursor and the session sweep, and how many
	// sessions are currently on the push path (gates push-only credit
	// machinery such as the on-free re-grant).
	chReads       []int
	readsInflight int
	nextReadCh    int
	fetchSweep    sweep[*sinkSession]
	pushSessions  int

	sessions map[uint32]*sinkSession
	nextID   uint32

	stats  Stats
	closed bool
	failed error

	// inv is the debug-build invariant ledger (no-op handle otherwise).
	inv uint64
}

// sinkSession is one dataset being received.
type sinkSession struct {
	info   SessionInfo
	writer BlockSink
	// offsetSink is non-nil when writer accepts offset-addressed
	// concurrent stores: arriving blocks then go straight to storage
	// (bounded by StoreDepth) instead of waiting behind reassembly
	// holes. nextDeliver tracks the contiguous-arrival low-water mark on
	// this path rather than the delivery cursor.
	offsetSink  OffsetSink
	nextDeliver uint32
	ready       map[uint32]*block   // in-order path: data-ready blocks by seq
	ooo         map[uint32]struct{} // offset path: arrived seqs above nextDeliver
	storeQ      []*block            // offset path: arrived blocks awaiting a store slot
	storing     int                 // Stores issued, not yet done
	haveLast    bool
	lastSeq     uint32
	received    int64
	blocks      int64
	completeRx  bool
	finished    bool

	// Session-manager state (sessmgr.go): the DRR weight and running
	// deficit, credits outstanding to this session, arrivals landed,
	// and the control-owned set of granted-but-unarrived blocks — the
	// session's reclaim ledger. needy/needySince bracket intervals the
	// tenant sat with zero credits waiting on the scheduler.
	weight     int
	deficit    int
	granted    int
	arrived    int64
	owned      map[*block]struct{}
	needy      bool
	needySince time.Duration

	// Pull-mode state (pullmode.go): the session's current data path,
	// advertisements queued for fetching, and a deferred push→pull
	// switch waiting for straggling WRITE arrivals to catch up with the
	// source's reported count.
	mode                TransferMode
	fetchQ              ringq.Ring[fetchAdvert]
	pendingSwitchToPull bool
	pendingSwitchCount  int64

	// Per-session telemetry counters (nil when telemetry is detached).
	telBytes     *telemetry.Counter
	telBlocks    *telemetry.Counter
	telSchedWait *telemetry.Counter
}

// NewSink creates the sink on an endpoint. Set NewWriter /
// OnSessionDone / OnError before the fabric starts delivering messages
// (for netfabric: before BindQP; for in-process fabrics: before the
// peer's Source starts).
func NewSink(ep *Endpoint, cfg Config) (*Sink, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	k := &Sink{
		ep:        ep,
		cfg:       cfg,
		sessions:  make(map[uint32]*sinkSession),
		zombies:   make(map[uint32]*zombieSession),
		chReads:   make([]int, len(ep.Data)),
		NewWriter: func(SessionInfo) BlockSink { return DiscardSink{} },
		inv:       invariant.NewConn("sink"),
	}
	k.flushFn = k.flushTimerFired
	k.fetchSweep.step = k.tryFetch
	k.stores = ioTasks[*sinkSession]{loop: ep.Loop, done: func(sess *sinkSession, b *block, _ int, _ bool, err error) {
		k.storeDone(sess, b, err)
	}}
	k.chOf = make(map[verbs.QPID]int)
	for ch, qp := range ep.Data {
		k.chOf[qp.ID()] = ch
	}
	ep.DataCQ.SetHandler(k.onDataWC)
	ep.ctrl.claim(k.handleCtrl, k.fail)
	return k, nil
}

// onDataWC takes every data-QP completion: WRITE WITH IMMEDIATE
// arrivals and pull-mode READs. (Explicit-notification mode delivers
// arrivals on the control QP, so it sees only flushes here.)
func (k *Sink) onDataWC(wc verbs.WC) {
	if k.closed || wc.Status == verbs.StatusFlushed {
		return
	}
	if wc.Status != verbs.StatusSuccess {
		k.fail(fmt.Errorf("core: data QP failure: %v", wc.Status))
		return
	}
	if wc.Op == verbs.OpRead {
		k.readWC(wc)
		return
	}
	if wc.Op != verbs.OpWriteImm {
		return
	}
	// Replenish the consumed notification receive on the same QP.
	if ch, ok := k.chOf[wc.QP]; ok {
		if err := k.ep.repostDataNotifyRecv(ch, wc.WRID); err != nil && err != ErrClosed {
			k.fail(fmt.Errorf("core: reposting notify recv: %w", err))
			return
		}
	}
	k.handleImmNotify(wc)
}

// Stats returns a snapshot of connection-level statistics.
func (k *Sink) Stats() Stats { return k.stats }

// BlockSizeInUse returns the negotiated block size (0 before
// negotiation).
func (k *Sink) BlockSizeInUse() int { return k.blockSize }

// Close tears the connection down.
func (k *Sink) Close() {
	if k.closed {
		return
	}
	k.closed = true
	// Every live session ends here, and OnSessionDone fires once for
	// each. A session marked finished has its whole stream stored and
	// its DATASET_COMPLETE ack queued — only the ack's send completion
	// (which fires finishSession) is outstanding, and the teardown may
	// have outrun it: it retires as the completion it is. Any other
	// session can no longer complete and fails with ErrClosed; the
	// flushed completions of a peer that vanished mid-transfer would
	// never end it.
	for _, sess := range slices.Clone(k.schedOrder) {
		if sess.finished {
			sess.finished = false
			k.finishSession(sess, nil, true)
		} else {
			k.finishSession(sess, ErrClosed, false)
		}
	}
	k.ep.Close()
	if k.pool != nil {
		// Granted-but-unwritten blocks are reclaimable now: closing the
		// QPs revoked the remote's access, so the outstanding credits
		// can never land. Without this, proactively granted blocks would
		// bypass the pin-down cache at teardown.
		for _, b := range k.pool.blocks {
			if b.state == BlockFetching {
				// An in-flight READ's completion was flushed with the QPs;
				// the block never carried a credit, so no gauges to settle.
				k.pool.recycle(b)
				continue
			}
			if b.state != BlockWaiting {
				continue
			}
			k.settleCredit(b)
			k.stats.CreditsReclaimed++
			k.pool.recycle(b)
		}
		k.pool.release(k.inv)
	}
}

func (k *Sink) sendCtrl(c *wire.Control) { k.sendCtrlThen(c, nil) }

// sendCtrlThen counts and queues one control message; onSent (if
// non-nil) fires on the message's send completion — after the peer
// acknowledged it. Used for ordering guarantees at teardown.
func (k *Sink) sendCtrlThen(c *wire.Control, onSent func()) {
	k.stats.CtrlMsgs++
	k.tel.ctrlMsgs.Inc()
	k.ep.ctrl.send(c, onSent)
}

func (k *Sink) handleCtrl(c *wire.Control) {
	switch c.Type {
	case wire.MsgBlockSizeReq:
		k.handleBlockSize(c)
	case wire.MsgChannelsReq:
		accept := int(c.AssocData) == len(k.ep.Data) && c.AssocData > 0
		flags := uint8(0)
		if accept {
			flags = wire.FlagAccept
		}
		k.sendCtrl(&wire.Control{Type: wire.MsgChannelsResp, Flags: flags, AssocData: c.AssocData})
	case wire.MsgSessionReq:
		k.handleSessionReq(c)
	case wire.MsgMRInfoRequest:
		k.handleMRRequest(c)
	case wire.MsgBlockComplete:
		k.handleBlockComplete(c)
	case wire.MsgDatasetComplete:
		k.handleDatasetComplete(c)
	case wire.MsgAbort:
		k.handleAbort(c)
	case wire.MsgBlockAdvert:
		k.handleAdvert(c)
	case wire.MsgModeSwitchReq:
		k.handleModeSwitch(c)

	default:
		// Response-direction types (and anything a newer peer invents)
		// are not ours to handle; drop them loudly enough to show up in
		// a trace dump instead of presenting as a silent hang.
		k.Trace.Emit(trace.Event{Cat: trace.CatError, Name: "ctrl_unhandled",
			Session: c.Session, V1: int64(c.Type)})
	}
}

// handleBlockSize accepts a proposed block size and allocates the
// receive pool (sink blocks become the credit supply).
func (k *Sink) handleBlockSize(c *wire.Control) {
	proposed := int(c.AssocData)
	const minBlock, maxBlock = wire.BlockHeaderSize + 1, 256 << 20
	if proposed < minBlock || proposed > maxBlock {
		k.sendCtrl(&wire.Control{Type: wire.MsgBlockSizeResp, AssocData: c.AssocData})
		return
	}
	if k.pool == nil {
		var err error
		shadowAccess := verbs.AccessLocalWrite | verbs.AccessRemoteWrite
		k.pool, err = newPool(k.ep.Dev, k.ep.PD, k.cfg.SinkBlocks, proposed, k.cfg.ModelPayload, shadowAccess, k.ep.MRCache)
		if err != nil {
			k.fail(err)
			return
		}
		k.blockSize = proposed
		if k.stalls != nil {
			k.attachPoolSpans()
		}
		k.Trace.Emit(trace.Event{Cat: trace.CatNego, Name: "blocksize_accepted",
			V1: int64(proposed), V2: int64(k.cfg.SinkBlocks)})
		// Adopt the source's notification mode; immediate mode needs
		// pre-posted receives on every data channel.
		if c.Flags&wire.FlagImmNotify != 0 {
			k.immMode = true
			if err := k.ep.postDataNotifyRecvs(k.ep.dataDepth); err != nil {
				k.fail(err)
				return
			}
		}
	} else if proposed != k.blockSize {
		// Renegotiating a different size on a live pool is rejected.
		k.sendCtrl(&wire.Control{Type: wire.MsgBlockSizeResp, AssocData: c.AssocData})
		return
	}
	flags := wire.FlagAccept
	if k.immMode {
		flags |= wire.FlagImmNotify
	}
	k.sendCtrl(&wire.Control{Type: wire.MsgBlockSizeResp, Flags: flags, AssocData: c.AssocData})
}

// debugStallHook is a test-only observation point invoked on each
// explicit MR_INFO_REQUEST (nil outside tests).
var debugStallHook func(*Sink)

// grantCredits advertises up to n free blocks to one session in one
// message (free → waiting in the sink FSM), bypassing the scheduler's
// sweep — the immediate legs (initial window, explicit on-demand
// requests) use it directly. reason records which policy leg issued
// the grant for telemetry and tracing. Returns the credits sent.
func (k *Sink) grantCredits(sess *sinkSession, n int, reason grantReason) int {
	got := k.sendGrantTo(sess, n, grantTraceNames[reason])
	k.tel.grants[reason].Add(int64(got))
	return got
}

// sendGrantTo acquires up to n free blocks for sess and sends them as
// a single session-targeted MR_INFO_RESPONSE. Each block is stamped
// with its owner at grant time: the stamp is verified when a WRITE
// lands (a cross-session landing is a protocol violation) and keys the
// reclaim ledger at teardown.
func (k *Sink) sendGrantTo(sess *sinkSession, n int, traceName string) int {
	if n <= 0 || k.pool == nil || sess.finished {
		return 0
	}
	now := k.ep.Loop.Now()
	// While any session is on the pull path the last free block is not
	// for granting. A credit holds its block until the source finds a
	// block of its own to load and write; an advertisement holds a
	// source block until a fetch finds a free block here. With the whole
	// pool granted and the whole source pool advertised neither side can
	// move — one block that only fetches may take keeps both draining.
	reserve := 0
	if k.pushSessions < len(k.schedOrder) {
		reserve = 1
	}
	credits := k.grantScratch[:0]
	for len(credits) < n && len(credits) < wire.MaxCreditsPerMsg && len(k.pool.free) > reserve {
		b := k.pool.get()
		b.setState(BlockWaiting)
		b.tAcq = now
		b.session = sess.info.ID
		sess.owned[b] = struct{}{}
		invariant.MRWriteStart(k.inv, b.mr.RKey)
		invariant.GaugeAdd(k.inv, "sess.granted", int(sess.info.ID), 1)
		credits = append(credits, wire.Credit{Addr: b.mr.Addr, RKey: b.mr.RKey, Len: uint32(k.blockSize)})
	}
	k.grantScratch = credits
	if len(credits) == 0 {
		return 0
	}
	k.granted += len(credits)
	sess.granted += len(credits)
	k.chargeSchedWait(sess, now)
	invariant.GaugeAdd(k.inv, "granted", 0, int64(len(credits)))
	k.stats.CreditsGranted += int64(len(credits))
	k.stats.GrantMsgs++
	if k.tel.reg != nil {
		k.tel.granted.Set(int64(k.granted))
		k.tel.creditBatchSize.Observe(int64(len(credits)))
		k.tel.creditWindow.Set(int64(k.targetWindow()))
	}
	k.Trace.Emit(trace.Event{Cat: trace.CatCredit, Name: traceName,
		Session: sess.info.ID, V1: int64(len(credits)), V2: int64(k.granted)})
	k.sendCtrl(&wire.Control{Type: wire.MsgMRInfoResponse, Session: sess.info.ID, Credits: credits})
	return len(credits)
}

// queueGrants adds n credits to the coalescer's pending batch under the
// proactive policy and flushes when a trigger fires: the batch reached
// Config.CreditBatch, or the source's outstanding credits fell below
// the low watermark (it could run dry within a round trip). Otherwise
// the flush timer bounds the wait. Credits beyond the target window
// are not queued at all — the window is the point of the adaptive
// sizing — and freed blocks re-enter via the on-free leg.
func (k *Sink) queueGrants(n int, reason grantReason) {
	if n <= 0 || k.pool == nil || k.closed || k.failed != nil {
		return
	}
	win := k.targetWindow()
	// Cap at the window head so granted + pending never exceeds the
	// target window; the excess is dropped exactly as the unbatched
	// protocol dropped over-window grants — freed blocks re-enter via
	// the on-free leg. In the pinned steady state each consumed block
	// opens one head slot, so pending still accumulates toward a batch.
	if head := win - k.granted - k.pendingGrant; n > head {
		n = head
	}
	if n <= 0 {
		return
	}
	k.pendingGrant += n
	k.pendingByReason[reason] += n
	k.tel.pendingGrants.Set(int64(k.pendingGrant))
	if k.pendingGrant >= k.batchSize(win) || k.granted < k.lowWater(win) {
		k.flushGrants()
		return
	}
	k.armFlushTimer()
}

// regrant is the on-free leg of the proactive policy: once the window
// has ramped, consume-time grants find nothing free, so n blocks that
// just came free re-advertise to the push tenants at once. Without it
// the source burns its stash and degenerates into explicit request
// round-trips. The blocks join the coalescer's batch rather than each
// paying for a full control message.
func (k *Sink) regrant(n int) {
	if k.pushSessions > 0 && k.cfg.CreditPolicy == CreditProactive && !k.cfg.NoGrantOnFree {
		k.queueGrants(n, grantOnFree)
	}
}

// pipeDepth estimates the source's effective pipeline depth as the
// sink sees it through granted: blocks the source may hold loaded or
// in flight (IODepth + InitialCredits), plus — under explicit
// completion notification — roughly one flight's worth of consumed
// blocks whose MsgBlockComplete has not yet landed. Those unnotified
// blocks inflate granted without representing source runway, so every
// watermark derived from granted must sit higher by that lag or the
// coalescer withholds credits a starving source needed.
func (k *Sink) pipeDepth() int {
	d := k.cfg.IODepth + k.cfg.InitialCredits
	if !k.immMode {
		d += k.win.bdp()
	}
	return d
}

// batchSize is the effective flush threshold: Config.CreditBatch capped
// at half the window slack beyond the source's pipeline depth. While a
// batch accumulates, granted dips by up to one batch below the window;
// the source rides out that dip on stash, which is at best
// win − depth, where depth is pipeDepth or the measured stallDepth
// (whichever is higher — see that field). Half the slack leaves an
// equal-size margin, so tight pools coalesce gently, deep pools reach
// the configured threshold, and a pool with no headroom at all
// degrades to unbatched granting.
func (k *Sink) batchSize(win int) int {
	depth := k.pipeDepth()
	if k.stallDepth > depth {
		depth = k.stallDepth
	}
	slack := (win - depth) / 2
	b := k.cfg.CreditBatch
	if b > slack {
		b = slack
	}
	if b < 1 {
		b = 1
	}
	return b
}

// lowWater is the outstanding-credit level below which a pending batch
// flushes immediately instead of waiting out the timer: once granted
// falls to the source's pipeline depth the stash is empty (granted
// counts blocks mid-write and, in explicit-notification mode,
// consumed blocks whose notification is still in flight) and every
// queued credit is needed now. Early in a transfer granted is always
// below it, so the exponential ramp is indistinguishable from
// unbatched granting.
func (k *Sink) lowWater(win int) int {
	lw := k.pipeDepth()
	if half := win / 2; lw > half {
		lw = half
	}
	if lw < 2 {
		lw = 2
	}
	return lw
}

// flushGrants drains the pending batch through the per-tenant
// scheduler: DRR sweeps distribute the batch across active sessions
// (one MR_INFO_RESPONSE per session granted). If the pool runs dry or
// every session is at its window share, the remainder is dropped —
// the unbatched protocol likewise dropped grants that found no free
// block; freed blocks re-advertise via the on-free leg or the
// explicit-request fallback.
func (k *Sink) flushGrants() {
	for k.pendingGrant > 0 {
		got := k.schedSweep(k.pendingGrant)
		if got == 0 {
			k.dropPending()
			break
		}
		k.attributeGrants(got, got)
	}
	k.tel.pendingGrants.Set(int64(k.pendingGrant))
}

// attributeGrants retires `taken` queued credits in policy-leg order
// and credits the first `granted` of them to the per-reason telemetry
// counters, so grants_* still sum to Stats.CreditsGranted.
func (k *Sink) attributeGrants(granted, taken int) {
	k.pendingGrant -= taken
	for r := range k.pendingByReason {
		if taken == 0 {
			break
		}
		n := k.pendingByReason[r]
		if n > taken {
			n = taken
		}
		k.pendingByReason[r] -= n
		taken -= n
		g := n
		if g > granted {
			g = granted
		}
		granted -= g
		k.tel.grants[r].Add(int64(g))
	}
}

// dropPending abandons the pending batch (transfer ended, pool dry).
func (k *Sink) dropPending() {
	k.pendingGrant = 0
	k.pendingByReason = [grantReasons]int{}
	k.tel.pendingGrants.Set(0)
}

// armFlushTimer bounds how long a non-empty batch may wait. The timer
// is one-shot and never re-arms itself: if the batch flushed early the
// firing is a no-op, so an idle sink schedules nothing.
func (k *Sink) armFlushTimer() {
	if k.flushArmed || k.pendingGrant <= 0 {
		return
	}
	k.flushArmed = true
	k.ep.Loop.After(k.flushInterval(), k.flushFn)
}

// flushTimerFired is armFlushTimer's callback, prebound once at
// construction so arming a timer does not allocate a closure.
func (k *Sink) flushTimerFired() {
	k.flushArmed = false
	if k.closed || k.failed != nil {
		return
	}
	if len(k.sessions) == 0 {
		// The transfer ended while the batch was pending: nothing
		// left to feed, keep the pool whole.
		k.dropPending()
		return
	}
	if k.pendingGrant > 0 {
		k.flushGrants()
	}
}

// flushInterval is the batch-age bound: the time a full batch takes to
// form at the measured delivery rate (batch × mean inter-arrival gap —
// waiting longer than that cannot grow the batch further), clamped so
// the LAN still flushes promptly and the WAN timer does not balloon.
func (k *Sink) flushInterval() time.Duration {
	d := time.Duration(k.batchSize(k.targetWindow())) * k.win.gap
	if d < 200*time.Microsecond {
		d = 200 * time.Microsecond
	}
	if d > 25*time.Millisecond {
		d = 25 * time.Millisecond
	}
	return d
}

// targetWindow is the sink's goal for credits outstanding at the
// source. With Config.CreditWindow set it is fixed; otherwise the
// estimator sizes it, with the source's pipeline depth as the depth
// term: granted credits include blocks mid-write, so a window below
// IODepth + InitialCredits would starve a source that is merely keeping
// its own pipe full.
func (k *Sink) targetWindow() int {
	if k.cfg.CreditWindow > 0 {
		return k.cfg.CreditWindow
	}
	return k.win.blocks(k.cfg.SinkBlocks, k.cfg.IODepth+k.cfg.InitialCredits+k.winBoost)
}

// handleMRRequest must answer as soon as at least one region frees
// (paper: "the responder will be delayed until one becomes available").
// The request is session-scoped: the starving tenant is named, so the
// answer is targeted at it rather than fed through the sweep.
func (k *Sink) handleMRRequest(c *wire.Control) {
	sess := k.sessions[c.Session]
	if sess == nil || sess.finished {
		return // the session tore down; reclaim returns its blocks
	}
	if sess.mode == ModePull {
		return // stale request racing a push→pull switch on the wire
	}
	if debugStallHook != nil {
		debugStallHook(k)
	}
	if len(k.sessions) > 1 {
		// Multiplexed tenants: the starvation bypass still honors the
		// requester's DRR share — without this clamp the first tenant
		// to ask would walk off with the whole pool and fairness would
		// collapse to first-come-first-served. The request is answered
		// directly only up to the share; it never captures the
		// coalescer's pending batch, which flushes through the sweep so
		// the other tenants keep their claim on it.
		batch := min(k.cfg.OnDemandBatch, k.sessionCap(sess)-sess.granted)
		if batch < 1 {
			// At its full share with a request on file. The request
			// MUST stay parked: the source sends exactly one and then
			// waits, so dropping it here is a lost wakeup — the refill
			// in storeDone answers it once an arrival opens the share.
			k.pendingReq = append(k.pendingReq, sess.info.ID)
		} else if k.winBoost < k.cfg.SinkBlocks {
			// An under-share tenant starving is evidence the shared
			// window itself ran behind the aggregate pipe.
			k.winBoost += k.cfg.OnDemandBatch
		}
		if batch >= 1 {
			if k.pool == nil || len(k.pool.free) == 0 {
				k.pendingReq = append(k.pendingReq, sess.info.ID)
			} else if k.grantCredits(sess, batch, grantOnDemand) == 0 {
				k.pendingReq = append(k.pendingReq, sess.info.ID)
			}
		}
		if k.pendingGrant > 0 {
			k.flushGrants()
		}
		return
	}
	// An explicit request means the source is starving: answer with a
	// full batch regardless of policy or window — the request is direct
	// evidence the window estimate ran behind the pipe. Any coalesced
	// batch still pending rides along instead of waiting out its timer.
	batch := k.cfg.OnDemandBatch
	if p := k.pendingGrant; p > batch {
		batch = p
	}
	// Record the starvation level only when the coalescer was actually
	// withholding a substantial batch — a request that finds little or
	// nothing pending (pool dry, pipe deeper than the pool) is not
	// batching's fault, and penalizing the batch size for it would
	// disable coalescing on every pool-limited path.
	if g := k.granted + k.pendingGrant; g > k.stallDepth &&
		2*k.pendingGrant >= k.batchSize(k.targetWindow()) && k.pendingGrant > 1 {
		k.stallDepth = g
	}
	k.dropPending()
	if k.winBoost < k.cfg.SinkBlocks {
		k.winBoost += k.cfg.OnDemandBatch
	}
	if k.pool == nil || len(k.pool.free) == 0 {
		k.pendingReq = append(k.pendingReq, sess.info.ID)
		return
	}
	k.grantCredits(sess, batch, grantOnDemand)
}

// popPendingReq returns the first still-live session with a starving
// request on file (paper: the delayed responder answers as soon as a
// region frees), discarding entries whose session tore down meanwhile.
func (k *Sink) popPendingReq() *sinkSession {
	for len(k.pendingReq) > 0 {
		id := k.pendingReq[0]
		k.pendingReq = k.pendingReq[1:]
		// A session that switched to the pull path since parking its
		// request no longer consumes credits; discard its entry.
		if sess := k.sessions[id]; sess != nil && !sess.finished && sess.mode != ModePull {
			return sess
		}
	}
	return nil
}

// handleBlockComplete processes a block-transfer completion
// notification: the named region now holds a block (waiting →
// data-ready), and under the proactive policy up to GrantPerConsume
// fresh credits go back immediately.
func (k *Sink) handleBlockComplete(c *wire.Control) {
	b, err := k.grantedRegion(c.RKey)
	if err == nil {
		err = k.arrive(b, c.Session, int64(c.Seq), int(c.Length))
	}
	if err != nil {
		k.fail(err)
		return
	}
	k.markArrived(b)
}

// handleImmNotify processes a WRITE WITH IMMEDIATE arrival: the
// immediate value is the rkey of the consumed region, the completion's
// byte count the only other thing the notice says.
func (k *Sink) handleImmNotify(wc verbs.WC) {
	b, err := k.grantedRegion(wc.Imm)
	if err == nil {
		err = k.arrive(b, b.session, -1, wc.ByteLen-wire.BlockHeaderSize)
	}
	if err != nil {
		k.fail(err)
		return
	}
	k.markArrived(b)
}

// settleCredit takes one credit off the connection ledger: the block
// it offered arrived or is being reclaimed. Every block returns through
// the ledger of the session stamped on it at grant time (the
// per-session gauge panics on a cross-session stray), so one tenant's
// teardown can never strand or absorb another's credits.
func (k *Sink) settleCredit(b *block) {
	invariant.MRWriteEnd(k.inv, b.mr.RKey)
	invariant.GaugeAdd(k.inv, "granted", 0, -1)
	invariant.GaugeAdd(k.inv, "sess.granted", int(b.session), -1)
	k.granted--
}

// grantedRegion resolves the rkey a push notice names (BLOCK_COMPLETE
// or a WRITE WITH IMMEDIATE completion) to the granted block it must
// refer to.
func (k *Sink) grantedRegion(rkey uint32) (*block, error) {
	if k.pool == nil {
		return nil, fmt.Errorf("%w: block notice before negotiation", ErrProtocol)
	}
	b := k.pool.byRKey(rkey)
	if b == nil || b.state != BlockWaiting {
		return nil, fmt.Errorf("%w: notice for unknown or non-waiting region rkey=%d", ErrProtocol, rkey)
	}
	return b, nil
}

// checkArrival decodes the header of the block that landed in b and
// checks it against the region's owner stamp and against what the
// notice — a BLOCK_COMPLETE message, a WRITE WITH IMMEDIATE completion,
// or the advertisement a READ was issued from — said would be there.
// seq < 0 means the notice names no sequence (an immediate carries only
// the rkey and a byte count).
func checkArrival(b *block, session uint32, seq int64, payloadLen int) (wire.BlockHeader, error) {
	hdr, err := wire.DecodeBlockHeader(b.mr.ViewLocal(0, wire.BlockHeaderSize))
	if err != nil {
		return hdr, fmt.Errorf("%w: undecodable block header: %v", ErrProtocol, err)
	}
	if hdr.Session != b.session {
		// The owner stamp was set when the region was offered (grant or
		// fetch time, before the offer left the sink), so one tenant's
		// block in another's region is always a source-side protocol bug.
		return hdr, fmt.Errorf("%w: session %d's block landed in session %d's region rkey=%d",
			ErrProtocol, hdr.Session, b.session, b.mr.RKey)
	}
	if hdr.Session != session || (seq >= 0 && hdr.Seq != uint32(seq)) || int(hdr.PayloadLen) != payloadLen {
		// Under pull this means the advertised region changed between
		// advert and READ: the source must keep it frozen until READ_DONE.
		return hdr, fmt.Errorf("%w: block header %d/%d/%d does not match its notice %d/%d/%d",
			ErrProtocol, hdr.Session, hdr.Seq, hdr.PayloadLen, session, seq, payloadLen)
	}
	return hdr, nil
}

// arrive validates a landed block and performs the data-plane half of
// its arrival, whichever notice announced it: the region holds a
// complete block, waiting/fetching → data-ready, with the header's
// identity stamped in.
func (k *Sink) arrive(b *block, session uint32, seq int64, payloadLen int) error {
	hdr, err := checkArrival(b, session, seq, payloadLen)
	if err != nil {
		return err
	}
	b.setState(BlockDataReady)
	b.session, b.seq, b.payloadLen, b.last = hdr.Session, hdr.Seq, int(hdr.PayloadLen), hdr.Last
	b.offset = hdr.Offset
	b.spans.SetKey(b.spanRef, b.session, b.seq)
	k.Trace.Emit(trace.Event{Cat: trace.CatBlock, Name: "arrived",
		Session: hdr.Session, Block: hdr.Seq, V1: int64(hdr.PayloadLen)})
	return nil
}

// markArrived is the control-plane half of a pushed arrival: the credit
// ledger, then the shared accept, then replacement grants.
func (k *Sink) markArrived(b *block) {
	k.settleCredit(b)
	sess := k.sessions[b.session]
	if sess == nil || sess.finished {
		// A WRITE that raced a teardown: tolerated for sessions with a
		// zombie record, a protocol violation otherwise.
		k.zombieArrival(b)
		return
	}
	sess.granted--
	delete(sess.owned, b)
	now, ok := k.accept(sess, b)
	if !ok {
		return
	}
	k.tel.granted.Set(int64(k.granted))
	if sess.granted == 0 {
		// The tenant's last outstanding credit just landed: until the
		// scheduler feeds it again it is waiting on a scheduling slot.
		k.noteNeedy(sess, now)
	}
	if sess.pendingSwitchToPull && sess.arrived >= sess.pendingSwitchCount {
		// The straggling WRITEs the deferred push→pull switch was
		// waiting on have all landed; complete it now.
		k.completeSwitchToPull(sess)
	}
	// Proactive feedback: queue replacement grants with the coalescer;
	// if nothing is free by flush time the notification is simply not
	// answered (paper semantics).
	if k.cfg.CreditPolicy == CreditProactive {
		k.queueGrants(k.cfg.GrantPerConsume, grantOnConsume)
	}
	k.feedWriter(sess)
	k.noteStall()
}

// accept is the control-plane half every arrival shares, pushed or
// fetched, once the caller has settled its own ledger: the exactly-once
// check, reassembly or store queueing, the window sample, and the
// last-block latch. It returns the arrival time, and false when the
// arrival failed the connection.
func (k *Sink) accept(sess *sinkSession, b *block) (now time.Duration, ok bool) {
	sess.arrived++
	if dup := k.noteArrival(sess, b.seq); dup {
		k.fail(fmt.Errorf("%w: duplicate block %d/%d", ErrProtocol, b.session, b.seq))
		return 0, false
	}
	if sess.offsetSink != nil {
		sess.storeQ = append(sess.storeQ, b)
	} else {
		sess.ready[b.seq] = b
	}
	now = k.ep.Loop.Now()
	if k.win.sample(now, now-b.tAcq) {
		// An epoch of steady arrivals without a fresh stall recording is
		// weak evidence the recorded stall depth is stale: decay it toward
		// the estimated pipeline depth. A genuinely batching-starved path
		// re-records faster than this drains (recordings raise it in one
		// step; decay removes an eighth of the excess per epoch), while a
		// stall that merely coincided with a large pending batch
		// (pool-limited WAN paths starve regardless of batching) stops
		// suppressing coalescing after a few epochs.
		if base := k.pipeDepth(); k.stallDepth > base {
			k.stallDepth -= (k.stallDepth - base + 7) / 8
		}
	}
	k.tel.creditLatency.Observe(int64(now - b.tAcq))
	k.tel.reassembly.Observe(int64(len(sess.ready) + len(sess.storeQ)))
	k.tel.blocksArrived.Inc()
	k.tel.bytesArrived.Add(int64(b.payloadLen))
	if b.last {
		sess.haveLast = true
		sess.lastSeq = b.seq
	}
	return now, true
}

// noteArrival records seq as arrived and reports whether it is a
// duplicate. Both paths keep nextDeliver as the contiguous low-water
// mark of processed-or-arrived sequence numbers; the offset path
// additionally tracks out-of-order arrivals in sess.ooo (the in-order
// path's ready map plays that role implicitly).
func (k *Sink) noteArrival(sess *sinkSession, seq uint32) (dup bool) {
	if sess.offsetSink == nil {
		_, inReady := sess.ready[seq]
		return inReady || seq < sess.nextDeliver
	}
	if seq < sess.nextDeliver {
		return true
	}
	if _, seen := sess.ooo[seq]; seen {
		return true
	}
	if seq == sess.nextDeliver {
		sess.nextDeliver++
		for {
			if _, ok := sess.ooo[sess.nextDeliver]; !ok {
				break
			}
			delete(sess.ooo, sess.nextDeliver)
			sess.nextDeliver++
		}
	} else {
		sess.ooo[seq] = struct{}{}
	}
	return false
}

// feedWriter moves whatever the session has ready toward its writer,
// by the path the writer supports.
func (k *Sink) feedWriter(sess *sinkSession) {
	if sess.offsetSink != nil {
		k.pumpStores(sess)
	} else {
		k.deliver(sess)
	}
}

// deliver hands ready blocks to the writer in sequence order
// (get_ready_blk in the paper's FSM), keeping at most StoreDepth
// stores outstanding.
func (k *Sink) deliver(sess *sinkSession) {
	for sess.storing < k.cfg.StoreDepth {
		b, ok := sess.ready[sess.nextDeliver]
		if !ok {
			break
		}
		delete(sess.ready, sess.nextDeliver)
		// In-order delivery: blocks leave reassembly as 0,1,2,...
		invariant.SeqNext(k.inv, sess.info.ID, b.seq)
		sess.nextDeliver++
		k.issueStore(sess, b)
	}
	k.maybeFinish(sess)
}

// pumpStores is the OffsetSink fast path: arrived blocks go to storage
// in arrival order, up to StoreDepth concurrently, with no reassembly
// wait — the writer places each block by its header offset.
func (k *Sink) pumpStores(sess *sinkSession) {
	for len(sess.storeQ) > 0 && sess.storing < k.cfg.StoreDepth {
		b := sess.storeQ[0]
		sess.storeQ = sess.storeQ[1:]
		k.issueStore(sess, b)
	}
	k.maybeFinish(sess)
}

// issueStore starts one Store (data-ready → storing) and arranges for
// storeDone on the loop.
func (k *Sink) issueStore(sess *sinkSession, b *block) {
	b.setState(BlockStoring)
	sess.storing++
	invariant.GaugeAdd(k.inv, "storing", int(sess.info.ID), 1)
	if k.tel.reg != nil {
		b.tReady = k.ep.Loop.Now()
		k.tel.storesInflight.Set(k.totalStoring())
	}
	hdr := wire.BlockHeader{
		Session: b.session, Seq: b.seq,
		Offset: b.offset, PayloadLen: uint32(b.payloadLen), Last: b.last,
	}
	var payload []byte
	if !k.cfg.ModelPayload {
		payload = b.mr.ViewLocal(wire.BlockHeaderSize, b.payloadLen)
	}
	sess.writer.Store(hdr, payload, b.payloadLen, k.stores.get(sess, b).stored)
}

// totalStoring sums in-flight stores across sessions (telemetry).
func (k *Sink) totalStoring() int64 {
	var n int64
	for _, sess := range k.sessions {
		n += int64(sess.storing)
	}
	return n
}

// storeDone recycles a consumed block (put_free_blk) and answers any
// starved credit request.
func (k *Sink) storeDone(sess *sinkSession, b *block, err error) {
	if k.closed || k.failed != nil {
		return
	}
	sess.storing--
	invariant.GaugeAdd(k.inv, "storing", int(sess.info.ID), -1)
	if k.tel.reg != nil {
		k.tel.storesInflight.Set(k.totalStoring())
	}
	if err != nil {
		// Sink-initiated abort: recycle the failed block, tear the
		// session down without reclaiming its granted blocks (the
		// source may still have WRITEs in flight into them — the
		// zombie record waits for its drain confirm), and tell the
		// source to stop.
		k.pool.recycle(b)
		k.stats.CreditsReclaimed++
		k.finishSession(sess, fmt.Errorf("core: storing block %d: %w", b.seq, err), false)
		k.sendCtrl(&wire.Control{Type: wire.MsgAbort, Session: sess.info.ID})
		return
	}
	sess.received += int64(b.payloadLen)
	sess.blocks++
	k.stats.Bytes += int64(b.payloadLen)
	k.stats.Blocks++
	k.stats.End = k.ep.Loop.Now()
	k.tel.storeLatency.Observe(int64(k.stats.End - b.tReady))
	sess.telBytes.Add(int64(b.payloadLen))
	sess.telBlocks.Inc()
	k.pool.recycle(b)
	starving := k.popPendingReq()
	if starving != nil {
		batch := k.cfg.OnDemandBatch
		if len(k.sessions) > 1 {
			// Multiplexed tenants: even the starvation path honors the
			// requester's DRR share, or FCFS refills would concentrate
			// the pool on whoever asked first.
			batch = min(batch, k.sessionCap(starving)-starving.granted)
		}
		if batch >= 1 {
			k.grantCredits(starving, batch, grantOnDemand)
		} else {
			// Still at its full share: keep the request on file (the
			// source will not ask again) and let this freed block
			// re-advertise through the sweep instead.
			k.pendingReq = append(k.pendingReq, starving.info.ID)
			starving = nil
		}
	}
	if starving == nil {
		k.regrant(1)
	}
	// A freed store slot may unblock queued or ready blocks, and the
	// freed block may unblock a queued fetch.
	k.feedWriter(sess)
	k.pumpFetches()
	k.noteStall()
}

func (k *Sink) handleDatasetComplete(c *wire.Control) {
	sess := k.sessions[c.Session]
	if sess == nil {
		return
	}
	sess.completeRx = true
	k.maybeFinish(sess)
}

// maybeFinish acknowledges a session once the complete in-order stream
// has been stored.
func (k *Sink) maybeFinish(sess *sinkSession) {
	if sess.finished || !sess.completeRx || !sess.haveLast {
		return
	}
	// nextDeliver is the contiguous low-water mark on both paths: past
	// lastSeq means every block arrived (offset path) or was delivered
	// (in-order path); pending stores and undrained queues still block.
	if sess.nextDeliver <= sess.lastSeq || sess.storing > 0 || len(sess.ready) > 0 || len(sess.storeQ) > 0 {
		return
	}
	k.Trace.Emit(trace.Event{Cat: trace.CatSession, Name: "session_complete",
		Session: sess.info.ID, V1: sess.received, V2: sess.blocks})
	// Fire OnSessionDone only once the acknowledgment's send completion
	// arrives: a server that closes the connection on session-done must
	// not strand the ack.
	sess.finished = true // no double-finish via other paths
	k.sendCtrlThen(&wire.Control{Type: wire.MsgDatasetCompleteAck, Session: sess.info.ID}, func() {
		if k.closed {
			return // Close already retired it as complete
		}
		sess.finished = false
		// Normal completion: the source drained every WRITE before
		// DATASET_COMPLETE and dropped its unused credits, so the
		// session's leftover granted blocks are safe to reclaim now.
		k.finishSession(sess, nil, true)
	})
}

// finishSession retires a session. reclaim says the source is known
// drained (normal completion, or an abort whose reported write count
// our arrivals have matched) so granted-but-unlanded blocks return to
// the pool immediately; otherwise, if any remain, the session parks as
// a zombie until the source's drain confirm proves no straggling WRITE
// can land (see zombieSession).
func (k *Sink) finishSession(sess *sinkSession, err error, reclaim bool) {
	if sess.finished {
		return
	}
	sess.finished = true
	delete(k.sessions, sess.info.ID)
	invariant.StreamReset(k.inv, sess.info.ID)
	if sess.mode == ModePush {
		k.pushSessions--
	}
	// Un-fetched advertisements die with the session, but the source's
	// drain must not: answer each with an unaccepted READ_DONE so the
	// advertised blocks recycle.
	for adv, ok := sess.fetchQ.Pop(); ok; adv, ok = sess.fetchQ.Pop() {
		k.sendCtrl(&wire.Control{Type: wire.MsgReadDone, Session: sess.info.ID, Seq: adv.seq, RKey: adv.rkey})
	}
	if i := slices.Index(k.schedOrder, sess); i >= 0 {
		k.schedOrder = slices.Delete(k.schedOrder, i, i+1)
	}
	k.tel.sessionsActive.Set(int64(len(k.schedOrder)))
	if len(k.sessions) == 0 && k.pendingGrant > 0 {
		// No session left to feed: abandon the coalesced batch so its
		// blocks stay free instead of being advertised into the void.
		k.dropPending()
	}
	// Blocks still held by an aborted session return to the pool
	// (data-ready → free, the abort shortcut past Storing). They were
	// granted but never became stored blocks: reclaimed, for the
	// conservation ledger.
	k.stats.CreditsReclaimed += int64(len(sess.ready) + len(sess.storeQ))
	for _, b := range sess.ready {
		k.dropOwned(sess, b)
		k.pool.recycle(b)
	}
	for _, b := range sess.storeQ {
		k.dropOwned(sess, b)
		k.pool.recycle(b)
	}
	sess.ready = nil
	sess.storeQ = nil
	sess.ooo = nil
	if reclaim {
		k.regrant(k.reclaimOwned(sess.info.ID, sess.owned))
	} else if k.failed == nil && !k.closed && len(sess.owned) > 0 {
		k.zombies[sess.info.ID] = &zombieSession{owned: sess.owned, arrived: sess.arrived}
	}
	sess.owned = nil
	if k.OnSessionDone != nil {
		k.OnSessionDone(sess.info, TransferResult{
			Session: sess.info.ID, Bytes: sess.received, Blocks: sess.blocks, Err: err,
		})
	}
	k.admitQueued()
}

func (k *Sink) fail(err error) {
	if k.failed != nil || k.closed {
		return
	}
	k.failed = err
	k.Trace.EmitErr(trace.CatError, "conn_failed", err)
	k.sendCtrl(&wire.Control{Type: wire.MsgAbort})
	for _, sess := range k.sessions {
		k.finishSession(sess, err, false)
	}
	if k.OnError != nil {
		k.OnError(err)
	}
}
