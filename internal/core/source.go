package core

import (
	"fmt"
	"slices"
	"time"

	"rftp/internal/invariant"
	"rftp/internal/ringq"
	"rftp/internal/spans"
	"rftp/internal/trace"
	"rftp/internal/verbs"
	"rftp/internal/wire"
)

// Source is the data-source side of the protocol: it negotiates
// parameters, loads blocks through a BlockSource, pairs loaded blocks
// with remote-memory credits, and streams them over the data channel
// queue pairs with RDMA WRITE, notifying the sink of each completed
// block on the control queue pair.
//
// All methods must be called from the endpoint's loop (or before any
// fabric activity); all callbacks, data completions included, are
// delivered on that loop.
type Source struct {
	ep  *Endpoint
	cfg Config

	pool *pool
	wr   verbs.SendWR // reused WRITE WR (PostSend copies)
	// creditCount is the sum of per-session credit stashes (sessions own
	// their credits; the sink's scheduler targets grants by session id).
	creditCount int

	// pumping/repump collapse re-entrant pump calls (a WRITE that cannot
	// be posted reverts through postReverted, which pumps, from inside
	// postWrites) into one loop.
	pumping bool
	repump  bool

	loads ioTasks[*srcSession] // load completion carriers

	negoStep int // 0 idle, 1 block size sent, 2 channels sent, 3 done
	onReady  func(error)
	openQ    []*srcSession // waiting to send SESSION_REQ
	// opening holds sessions whose SESSION_REQ is outstanding, up to
	// maxOpenInflight deep so thousands of Transfer calls pipeline their
	// handshakes instead of serializing one round trip each. Responses
	// are matched by the request token echoed in the Seq field, so a
	// sink that answers out of order (admission queue) still resolves.
	opening    []*srcSession
	nextTok    uint32
	sessions   map[uint32]*srcSession
	rrSessions []*srcSession // load scheduling order
	loadRR     int           // issueLoads round-robin cursor into rrSessions
	// writeSweep/advertSweep walk rrSessions for postWrites/postAdverts.
	writeSweep, advertSweep sweep[*srcSession]

	chInflight  []int // per data QP
	chDead      []bool
	chSaturated []bool // PostSend hit ErrSendQueueFull; cleared on next WC
	nextCh      int

	// Pull-mode advertise pipeline (pullmode.go): total advertisements
	// outstanding across sessions, bounded by a window estimated from the
	// advert→READ_DONE round trip and the READ_DONE arrival rate.
	advertCount int
	advWin      rateWindow

	// inv is the debug-build invariant ledger (no-op handle otherwise).
	inv uint64

	stats  Stats
	closed bool
	failed error
	// OnError observes fatal connection-level failures.
	OnError func(error)
	// OnProgress, when set, observes cumulative payload bytes confirmed
	// per session (fires on every block completion, on the loop).
	OnProgress func(session uint32, bytes int64)
	// Trace, when set, records protocol events into a ring buffer.
	Trace *trace.Ring
	// tel holds resolved metric handles; all nil (and tel.reg nil) while
	// telemetry is detached (see AttachTelemetry).
	tel sourceTelemetry
	// spans/stalls hold the lifecycle span recorder and the stall
	// attributor; nil when detached (see AttachSpans).
	spans  *spans.Recorder
	stalls *spans.StallTracker
}

// srcSession is one dataset transfer in progress at the source.
type srcSession struct {
	id      uint32
	openTok uint32 // SESSION_REQ token (echoed in SESSION_RESP.Seq)
	src     BlockSource
	srcAt   BlockSourceAt // non-nil when src is offset-addressed
	total   int64         // advisory; EOF from the BlockSource is authoritative
	sent    int64
	blocks  int64
	nextSeq uint32
	// loadedQ and credits are this session's private queues: blocks
	// loaded and waiting for a credit, and credits granted by the sink's
	// scheduler to this session. Keeping them per session is what lets
	// postWrites interleave sessions — one session exhausting its credit
	// share can no longer park its blocks at the head of a shared FIFO
	// and stall every other session behind it.
	loadedQ ringq.Ring[*block]
	credits ringq.Ring[wire.Credit]
	stalled bool // session-scoped MR_INFO_REQUEST outstanding
	// aborting marks a session draining toward teardown: no new loads or
	// posts are issued, in-flight loads and WRITEs are recycled as they
	// complete, and only when the last one lands does the source send
	// MsgAbort for the session — so the sink never reclaims a granted
	// block that a straggling WRITE could still hit.
	aborting bool
	abortErr error
	// nextOffset is the byte offset of the next load. Offset-addressed
	// sessions advance it by the full payload capacity at issue time
	// (seq and offset are fixed before the load completes, so loads
	// overlap); serial sessions advance it by the actual length at
	// completion.
	nextOffset uint64
	loads      int // Loads issued, not yet completed
	eof        bool
	inflight   int // blocks sending/waiting
	queued     int // blocks in s.loaded
	completeTx bool
	onDone     func(TransferResult)

	// Pull-mode state (pullmode.go): the session's current data path,
	// blocks advertised and awaiting READ_DONE (by seq), and the
	// mode-change handshake in progress.
	mode          TransferMode
	advertised    map[uint32]*block
	switching     bool
	pendingMode   TransferMode
	switchReqSent bool
	// Hybrid-controller state: blocks completed at the last switch and
	// per-mode goodput EWMAs (blocks/sec; [0]=push, [1]=pull) fed by
	// fixed-size completion epochs.
	lastSwitchBlocks int64
	modeRate         [2]float64
	rateEpoch        epoch
}

// loadDepth is how many loads this session may keep in flight: plain
// BlockSources are strictly serial (the next load's offset depends on
// the previous load's length); offset-addressed sources pipeline up to
// Config.LoadDepth.
func (sess *srcSession) loadDepth(cfg *Config) int {
	if sess.srcAt == nil {
		return 1
	}
	return cfg.LoadDepth
}

// TransferResult reports one finished dataset transfer.
type TransferResult struct {
	Session uint32
	Bytes   int64
	Blocks  int64
	Err     error
}

// NewSource creates the source on an endpoint. Call Start to negotiate,
// then Transfer for each dataset.
func NewSource(ep *Endpoint, cfg Config) (*Source, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Channels != len(ep.Data) {
		return nil, fmt.Errorf("core: config asks %d channels, endpoint has %d", cfg.Channels, len(ep.Data))
	}
	s := &Source{
		ep:          ep,
		cfg:         cfg,
		sessions:    make(map[uint32]*srcSession),
		chInflight:  make([]int, len(ep.Data)),
		chDead:      make([]bool, len(ep.Data)),
		chSaturated: make([]bool, len(ep.Data)),
		inv:         invariant.NewConn("source"),
	}
	// RemoteRead exposure lets the pull path advertise any loaded block
	// for one-sided READs without re-registering; harmless under push.
	s.pool, err = newPool(ep.Dev, ep.PD, cfg.IODepth, cfg.BlockSize, cfg.ModelPayload, verbs.AccessLocalWrite|verbs.AccessRemoteRead, ep.MRCache)
	if err != nil {
		return nil, err
	}
	s.writeSweep.step, s.advertSweep.step = s.tryWrite, s.tryAdvert
	s.loads = ioTasks[*srcSession]{loop: ep.Loop, done: s.loadDone}
	ep.DataCQ.SetHandler(s.onDataWC)
	ep.ctrl.claim(s.handleCtrl, s.fail)
	return s, nil
}

// Stats returns a snapshot of connection-level statistics.
func (s *Source) Stats() Stats { return s.stats }

// Config returns the normalized configuration in use.
func (s *Source) Config() Config { return s.cfg }

// Start begins parameter negotiation (phase 1). onReady fires on the
// loop when both block size and channel count are accepted, or with an
// error.
func (s *Source) Start(onReady func(error)) {
	if s.negoStep != 0 {
		onReady(ErrBusy)
		return
	}
	s.Trace.Emit(trace.Event{Cat: trace.CatNego, Name: "nego_start",
		V1: int64(s.cfg.BlockSize), V2: int64(s.cfg.Channels)})
	s.onReady = onReady
	s.negoStep = 1
	if s.cfg.NegotiateTimeout > 0 {
		s.ep.Loop.After(s.cfg.NegotiateTimeout, func() {
			if s.negoStep != 3 && s.failed == nil && !s.closed {
				s.fail(fmt.Errorf("core: negotiation timed out after %v", s.cfg.NegotiateTimeout))
			}
		})
	}
	var flags uint8
	if s.cfg.NotifyViaImm {
		flags |= wire.FlagImmNotify
	}
	s.sendCtrl(&wire.Control{Type: wire.MsgBlockSizeReq, Flags: flags, AssocData: uint64(s.cfg.BlockSize)})
}

// Transfer queues one dataset. total is advisory (sent to the sink in
// SESSION_REQ); the BlockSource's EOF decides the true length. onDone
// fires on the loop when the sink acknowledged the complete dataset.
func (s *Source) Transfer(src BlockSource, total int64, onDone func(TransferResult)) {
	if s.failed != nil || s.closed {
		onDone(TransferResult{Err: firstErr(s.failed, ErrClosed)})
		return
	}
	sess := &srcSession{src: src, total: total, onDone: onDone,
		mode: s.initialMode(), advertised: make(map[uint32]*block)}
	sess.srcAt, _ = src.(BlockSourceAt)
	s.openQ = append(s.openQ, sess)
	s.tryOpenSession()
}

// Abort cancels one in-flight transfer; the connection and its other
// sessions survive. The session's onDone fires with ErrAborted once
// its in-flight loads and WRITEs drain and the sink has been told.
func (s *Source) Abort(session uint32) {
	if sess := s.sessions[session]; sess != nil {
		s.abortSession(sess, ErrAborted)
	}
}

// Close tears the connection down. In-flight transfers fail.
func (s *Source) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.failSessions(ErrClosed)
	s.ep.Close()
	s.pool.release(s.inv)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// sendCtrl counts and queues one control message.
func (s *Source) sendCtrl(c *wire.Control) {
	s.stats.CtrlMsgs++
	s.tel.ctrlMsgs.Inc()
	s.ep.ctrl.send(c, nil)
}

// maxOpenInflight bounds concurrent SESSION_REQs outstanding, keeping
// the control receive ring ahead of a caller queueing thousands of
// transfers at once while still pipelining the open handshakes.
const maxOpenInflight = 16

func (s *Source) tryOpenSession() {
	for len(s.opening) < maxOpenInflight && len(s.openQ) > 0 && s.negoStep == 3 && s.failed == nil {
		sess := s.openQ[0]
		s.openQ = s.openQ[1:]
		s.nextTok++
		sess.openTok = s.nextTok
		s.opening = append(s.opening, sess)
		var flags uint8
		if sess.mode == ModePull {
			flags |= wire.FlagModePull
		}
		s.sendCtrl(&wire.Control{
			Type:      wire.MsgSessionReq,
			Flags:     flags,
			Seq:       sess.openTok,
			Length:    uint32(s.cfg.BlockSize),
			AssocData: uint64(sess.total),
		})
	}
}

// popOpening resolves a SESSION_RESP to its request by the echoed
// token; responses normally arrive in request order, so the head hit
// is the common case.
func (s *Source) popOpening(tok uint32) *srcSession {
	for i, sess := range s.opening {
		if sess.openTok == tok {
			s.opening = append(s.opening[:i], s.opening[i+1:]...)
			return sess
		}
	}
	return nil
}

func (s *Source) handleCtrl(c *wire.Control) {
	switch c.Type {
	case wire.MsgBlockSizeResp:
		if s.negoStep != 1 {
			return
		}
		if c.Flags&wire.FlagAccept == 0 {
			s.finishNego(ErrNegotiationRejected)
			return
		}
		if s.cfg.NotifyViaImm && c.Flags&wire.FlagImmNotify == 0 {
			// The sink did not adopt immediate notification.
			s.finishNego(ErrNegotiationRejected)
			return
		}
		s.negoStep = 2
		s.sendCtrl(&wire.Control{Type: wire.MsgChannelsReq, AssocData: uint64(s.cfg.Channels)})

	case wire.MsgChannelsResp:
		if s.negoStep != 2 {
			return
		}
		if c.Flags&wire.FlagAccept == 0 {
			s.finishNego(ErrNegotiationRejected)
			return
		}
		s.negoStep = 3
		s.Trace.Emit(trace.Event{Cat: trace.CatNego, Name: "nego_complete"})
		s.finishNego(nil)
		s.tryOpenSession()

	case wire.MsgSessionResp:
		sess := s.popOpening(c.Seq)
		if sess == nil {
			return
		}
		if c.Flags&wire.FlagAccept == 0 {
			err := ErrNegotiationRejected
			if c.Flags&wire.FlagBusy != 0 {
				err = ErrSessionBusy
			}
			sess.onDone(TransferResult{Err: err})
			s.tryOpenSession()
			return
		}
		sess.id = c.Session
		s.Trace.Emit(trace.Event{Cat: trace.CatSession, Name: "session_open",
			Session: sess.id, V1: sess.total})
		s.sessions[sess.id] = sess
		s.rrSessions = append(s.rrSessions, sess)
		if s.stats.Start == 0 {
			s.stats.Start = s.ep.Loop.Now()
		}
		s.pump()
		s.tryOpenSession()

	case wire.MsgMRInfoResponse:
		invariant.CreditGrant(s.inv, int64(len(c.Credits)))
		s.stats.CreditsGranted += int64(len(c.Credits))
		s.stats.GrantMsgs++
		sess := s.sessions[c.Session]
		if sess == nil || sess.completeTx || sess.aborting || sess.mode == ModePull {
			// Credits for a session that finished, is draining, or has
			// switched to the pull path: the grant crossed the teardown
			// (or the mode switch) on the wire. Drop them — the sink
			// reclaims the backing blocks when it processes the
			// session's completion, abort, or switch.
			invariant.CreditConsume(s.inv, int64(len(c.Credits)))
			s.pump()
			return
		}
		sess.stalled = false
		for _, cr := range c.Credits {
			sess.credits.Push(cr)
		}
		s.creditCount += len(c.Credits)
		s.tel.creditsRecv.Add(int64(len(c.Credits)))
		s.tel.creditStash.Set(int64(s.creditCount))
		s.Trace.Emit(trace.Event{Cat: trace.CatCredit, Name: "credits_recv",
			Session: c.Session, V1: int64(len(c.Credits)), V2: int64(s.creditCount)})
		s.pump()

	case wire.MsgDatasetCompleteAck:
		sess := s.sessions[c.Session]
		if sess == nil {
			return
		}
		s.Trace.Emit(trace.Event{Cat: trace.CatSession, Name: "complete_ack",
			Session: sess.id, V1: sess.sent, V2: sess.blocks})
		s.removeSession(sess)
		sess.onDone(TransferResult{Session: sess.id, Bytes: sess.sent, Blocks: sess.blocks})

	case wire.MsgAbort:
		if c.Session == 0 {
			s.fail(ErrAborted)
			return
		}
		if sess := s.sessions[c.Session]; sess != nil {
			s.abortSession(sess, ErrAborted)
			return
		}
		// Unknown session: the sink's abort crossed our own teardown on
		// the wire, and our drain confirm (carrying the write count) is
		// already ahead of it. Nothing to do — replying would just
		// duplicate that confirm.

	case wire.MsgReadDone:
		s.handleReadDone(c)

	case wire.MsgModeSwitchAck:
		s.handleModeSwitchAck(c)

	default:
		// Request-direction types (and anything a newer peer invents) are
		// not ours to handle; drop them loudly enough to show up in a
		// trace dump instead of presenting as a silent hang.
		s.Trace.Emit(trace.Event{Cat: trace.CatError, Name: "ctrl_unhandled",
			Session: c.Session, V1: int64(c.Type)})
	}
}

func (s *Source) finishNego(err error) {
	if cb := s.onReady; cb != nil {
		s.onReady = nil
		cb(err)
	}
	if err != nil {
		s.fail(err)
	}
}

func (s *Source) removeSession(sess *srcSession) {
	delete(s.sessions, sess.id)
	invariant.StreamReset(s.inv, sess.id)
	if i := slices.Index(s.rrSessions, sess); i >= 0 {
		s.rrSessions = slices.Delete(s.rrSessions, i, i+1)
	}
}

// pump advances the source state machine: issue loads, pair loaded
// blocks with credits, post WRITEs, request credits on starvation, and
// send dataset-complete when drained.
func (s *Source) pump() {
	if s.failed != nil || s.closed {
		return
	}
	// A WRITE that fails to post calls pump from inside postWrites; fold
	// such calls into one outer loop instead of recursing through a
	// half-advanced state machine.
	if s.pumping {
		s.repump = true
		return
	}
	s.pumping = true
	for {
		s.repump = false
		s.pumpOnce()
		if !s.repump || s.failed != nil || s.closed {
			break
		}
	}
	s.pumping = false
}

func (s *Source) pumpOnce() {
	s.issueLoads()
	s.postWrites()
	s.postAdverts()
	// Credit starvation fallback, per session: data is ready but the
	// session holds no credits and has no outstanding request (paper: MR
	// block information request, now scoped to the starving session so
	// the sink's scheduler knows which tenant to feed). Pull and
	// mode-switching sessions don't consume credits, so they never ask.
	for _, sess := range s.rrSessions {
		if sess.loadedQ.Len() == 0 || sess.credits.Len() > 0 || sess.stalled || sess.aborting ||
			sess.mode == ModePull || sess.switching {
			continue
		}
		sess.stalled = true
		s.stats.CreditStalls++
		s.tel.creditStalls.Inc()
		s.Trace.Emit(trace.Event{Cat: trace.CatCredit, Name: "credit_stall",
			Session: sess.id, V1: s.stats.CreditStalls, V2: int64(sess.loadedQ.Len())})
		s.sendCtrl(&wire.Control{Type: wire.MsgMRInfoRequest, Session: sess.id})
	}
	// Credit conservation: every granted credit is either consumed by a
	// posted WRITE, dropped at session teardown, or still in a stash.
	invariant.CreditOutstanding(s.inv, int64(s.creditCount))
	s.checkSessionCompletion()
	s.noteStall()
}

// issueLoads starts block loads (get_free_blk in the paper's FSM):
// round-robin over sessions, each allowed up to its load depth in
// flight, blocks permitting. Offset-addressed sessions fix seq and
// offset at issue time, so many loads overlap and completions may
// arrive in any order — the storage stage pipelines like the network
// stages already do.
func (s *Source) issueLoads() {
	n := len(s.rrSessions)
	if n == 0 {
		return
	}
	// Contention-time prefetch bounds: with several sessions sharing the
	// block pool, a credit-starved session must not keep loading ahead —
	// unbounded prefetch parks the whole pool in a few sessions' loaded
	// queues and the rest (credits in hand) cannot load at all. Each
	// session may stay an equal pool share ahead of its credits, and
	// prefetch beyond a session's credits may only use the pool's
	// surplus half: a load paired with an unspent credit always drains
	// (write, complete, recycle), so reserving half the pool for paired
	// loads keeps the pipeline deadlock-free even when parked sessions
	// outnumber the blocks. A lone session keeps the unbounded prefetch
	// that rides out credit dips.
	share, reserve := 0, 0
	if n > 1 {
		share = len(s.pool.blocks) / n
		if share < 1 {
			share = 1
		}
		reserve = len(s.pool.blocks) / 2
	}
	for progress := true; progress; {
		progress = false
		for i := 0; i < n; i++ {
			idx := (s.loadRR + i) % n
			sess := s.rrSessions[idx]
			if sess.eof || sess.aborting || sess.loads >= sess.loadDepth(&s.cfg) {
				continue
			}
			if share > 0 {
				ahead := sess.loads + sess.loadedQ.Len()
				if ahead >= sess.credits.Len()+share {
					continue
				}
				if ahead >= sess.credits.Len() && len(s.pool.free) <= reserve {
					continue
				}
			}
			b := s.pool.get()
			if b == nil {
				// Dry: remember who was denied so the next freed block
				// goes to it, not back to the front of the list.
				s.loadRR = idx
				return
			}
			s.issueLoad(sess, b)
			s.loadRR = (idx + 1) % n
			progress = true
		}
	}
}

// issueLoad starts one load into b for sess.
func (s *Source) issueLoad(sess *srcSession, b *block) {
	sess.loads++
	b.setState(BlockLoading)
	if s.tel.reg != nil {
		b.tAcq = s.ep.Loop.Now()
		s.tel.loadsInflight.Set(s.totalLoads())
	}
	b.session = sess.id
	b.seq = sess.nextSeq
	b.offset = sess.nextOffset
	b.spans.SetKey(b.spanRef, b.session, b.seq)
	invariant.SeqNext(s.inv, sess.id, b.seq)
	sess.nextSeq++
	var payload []byte
	if !s.cfg.ModelPayload {
		payload = b.mr.Buf[wire.BlockHeaderSize:]
	}
	capacity := s.cfg.PayloadCapacity()
	t := s.loads.get(sess, b)
	if sess.srcAt != nil {
		// Assume a full block; an EOF completion trims. Once any load
		// reports EOF no further loads are issued, so the stride error
		// never propagates into a sent block.
		sess.nextOffset += uint64(capacity)
		sess.srcAt.LoadAt(payload, capacity, b.offset, t.loaded)
	} else {
		sess.src.Load(payload, capacity, t.loaded)
	}
}

func (s *Source) loadDone(sess *srcSession, b *block, n int, eof bool, err error) {
	if s.failed != nil || s.closed {
		return
	}
	sess.loads--
	if s.tel.reg != nil {
		s.tel.loadsInflight.Set(s.totalLoads())
	}
	if s.sessions[sess.id] != sess || sess.aborting {
		// The session failed, finished, or is draining toward an abort
		// while this load was in flight; recycle the block and keep
		// other sessions moving.
		s.pool.recycle(b)
		s.maybeFinishAbort(sess)
		s.pump()
		return
	}
	if err != nil {
		seq := b.seq
		s.pool.recycle(b)
		s.abortSession(sess, fmt.Errorf("core: loading block %d: %w", seq, err))
		return
	}
	if n == 0 && !eof {
		s.pool.recycle(b)
		s.abortSession(sess, fmt.Errorf("%w: empty load without EOF", ErrProtocol))
		return
	}
	if eof {
		sess.eof = true
	}
	if sess.srcAt != nil && n == 0 && eof && b.seq != 0 {
		// Over-issued load past the dataset end (offset-addressed
		// pipelining cannot know where EOF falls until a completion
		// reports it): discard. Seq 0 is the exception — an empty
		// dataset still sends one empty last block.
		s.Trace.Emit(trace.Event{Cat: trace.CatBlock, Name: "load_overrun",
			Session: sess.id, Block: b.seq})
		s.pool.recycle(b)
		s.pump()
		return
	}
	if sess.srcAt == nil {
		sess.nextOffset += uint64(n)
	}
	b.payloadLen = n
	b.last = eof
	b.setState(BlockLoaded)
	if s.tel.reg != nil {
		b.tReady = s.ep.Loop.Now()
		s.tel.loadLatency.Observe(int64(b.tReady - b.tAcq))
	}
	sess.loadedQ.Push(b)
	sess.queued++
	s.pump()
}

// totalLoads sums in-flight loads across sessions (telemetry).
func (s *Source) totalLoads() int64 {
	var n int64
	for _, sess := range s.rrSessions {
		n += int64(sess.loads)
	}
	return n
}

// postWrites pairs loaded blocks with credits and channels and posts
// each as an RDMA WRITE: a session out of credits (or out of data) is
// skipped by the sweep, the multiplexed replacement for the old global
// FIFO's head-of-line blocking.
func (s *Source) postWrites() { s.writeSweep.run(&s.rrSessions) }

// tryWrite is postWrites' per-session step. The accounting (credit
// consumed, inflight counters) is committed here, before the post; a
// WRITE that cannot be posted goes back through postReverted, which
// undoes it.
func (s *Source) tryWrite(sess *srcSession) step {
	// Pull sessions advertise instead of writing; a switching session
	// must stop consuming credits the moment the handshake starts — the
	// sink reclaims and re-grants its regions, so a late WRITE would land
	// in another tenant's memory.
	if sess.aborting || sess.mode == ModePull || sess.switching ||
		sess.loadedQ.Len() == 0 || sess.credits.Len() == 0 {
		return stepSkip
	}
	b, _ := sess.loadedQ.Peek()
	cr, _ := sess.credits.Peek()
	if int(cr.Len) < wire.BlockHeaderSize+b.payloadLen {
		// Credit too small for this block: protocol violation (the block
		// size was negotiated).
		s.fail(fmt.Errorf("%w: credit len %d < block need %d", ErrProtocol, cr.Len, wire.BlockHeaderSize+b.payloadLen))
		return stepBlocked
	}
	ch := pickChannel(&s.nextCh, s.chInflight, s.cfg.IODepth+dataQueueSlack, s.chDead, s.chSaturated)
	if ch < 0 {
		return stepBlocked // all channels at depth; completions will re-pump
	}
	sess.loadedQ.Pop()
	sess.credits.Pop()
	s.creditCount--
	invariant.CreditConsume(s.inv, 1)
	b.credit = cr
	b.chIdx = ch
	b.setState(BlockSending)
	s.chInflight[ch]++
	invariant.GaugeAdd(s.inv, "ch.inflight", ch, 1)
	sess.inflight++
	sess.queued--
	if s.tel.reg != nil {
		s.tel.creditStash.Set(int64(s.creditCount))
		s.tel.inflight.Set(s.totalInflight())
	}
	s.post(b)
	return stepTook
}

// post sends one block down its channel. The block is in Sending state
// with credit and channel already chosen.
func (s *Source) post(b *block) {
	hdr := wire.BlockHeader{
		Session: b.session, Seq: b.seq, Offset: b.offset,
		PayloadLen: uint32(b.payloadLen), Last: b.last,
	}
	wr := &s.wr
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
		if !s.closed {
			s.postReverted(b, err)
		}
		return
	}
	b.setState(BlockWaiting)
	b.spans.SetChannel(b.spanRef, b.chIdx)
	s.Trace.Emit(trace.Event{Cat: trace.CatBlock, Name: "posted",
		Session: b.session, Block: b.seq, Channel: int32(b.chIdx), V1: int64(b.payloadLen)})
	if t := &s.tel; t.reg != nil {
		b.tPost = s.ep.Loop.Now()
		t.creditWait.Observe(int64(b.tPost - b.tReady))
		t.blocksPosted.Inc()
		t.bytesPosted.Add(int64(b.payloadLen))
		t.chBlocks[b.chIdx].Inc()
		t.chBytes[b.chIdx].Add(int64(b.payloadLen))
	}
}

// postReverted undoes postWrites' accounting for a block that could
// not be posted. ErrSendQueueFull marks the channel saturated (the
// flag clears on the channel's next completion, exactly when a send
// slot frees); any other error kills the channel.
func (s *Source) postReverted(b *block, err error) {
	ch := b.chIdx
	s.chInflight[ch]--
	invariant.GaugeAdd(s.inv, "ch.inflight", ch, -1)
	sess := s.sessions[b.session]
	if sess != nil && !sess.aborting {
		sess.inflight--
		sess.queued++
		sess.loadedQ.PushFront(b)
		sess.credits.PushFront(b.credit)
		s.creditCount++
		// The credit went back to the stash unused: re-grant so the
		// ledger keeps matching the stash totals.
		invariant.CreditGrant(s.inv, 1)
	} else {
		// The owning session died while the block was being posted:
		// the credit stays consumed — the sink reclaims the backing
		// region at session teardown.
		s.discard(sess, b)
	}
	if err == verbs.ErrSendQueueFull {
		s.chSaturated[ch] = true
		s.pump()
		return
	}
	s.chDead[ch] = true
	if s.liveChannels() == 0 {
		s.fail(fmt.Errorf("core: all data channels failed: %w", err))
		return
	}
	s.pump()
}

// discard recycles an in-flight block that will not be (re)sent: its
// session is gone (nil) or draining toward an abort.
func (s *Source) discard(sess *srcSession, b *block) {
	s.pool.recycle(b)
	if sess != nil {
		sess.inflight--
		s.maybeFinishAbort(sess)
	}
}

// delivered accounts one block the sink now holds: a completed WRITE
// under push, an accepted READ_DONE under pull.
func (s *Source) delivered(sess *srcSession, b *block, now time.Duration) {
	s.stats.Bytes += int64(b.payloadLen)
	s.stats.Blocks++
	s.stats.End = now
	if sess != nil {
		sess.sent += int64(b.payloadLen)
		sess.blocks++
		if s.OnProgress != nil {
			s.OnProgress(sess.id, sess.sent)
		}
	}
}

// retire recycles a block whose offer the sink has settled and moves
// its session on: a draining session toward its abort, a live one
// through the hybrid controller (a mode switch waits for the last
// outstanding block of the old path to drain).
func (s *Source) retire(sess *srcSession, b *block) {
	s.pool.recycle(b)
	if sess != nil && sess.aborting {
		s.maybeFinishAbort(sess)
	} else if sess != nil {
		s.noteModeProgress(sess)
		if sess.switching {
			s.maybeSendSwitchReq(sess)
		}
	}
	s.pump()
}

func wire2remote(c wire.Credit) verbs.RemoteAddr {
	return verbs.RemoteAddr{Addr: c.Addr, RKey: c.RKey}
}

func (s *Source) totalInflight() int64 {
	var n int64
	for _, c := range s.chInflight {
		n += int64(c)
	}
	return n
}

func (s *Source) liveChannels() int {
	n := 0
	for _, d := range s.chDead {
		if !d {
			n++
		}
	}
	return n
}

// onDataWC takes a WRITE completion, one per block post sent. Once
// Close ran, or after failure handling recycled the block, it is stale.
func (s *Source) onDataWC(wc verbs.WC) {
	if s.closed {
		return
	}
	b := s.pool.byIdx(int(wc.WRID))
	if b == nil || b.state != BlockWaiting {
		return
	}
	s.writeDone(b, wc.Status)
}

// writeDone settles one posted WRITE by its completion status.
func (s *Source) writeDone(b *block, status verbs.Status) {
	s.chInflight[b.chIdx]--
	invariant.GaugeAdd(s.inv, "ch.inflight", b.chIdx, -1)
	s.chSaturated[b.chIdx] = false // a send slot freed with this WC
	sess := s.sessions[b.session]
	switch status {
	case verbs.StatusSuccess:
		// Notify the sink which region completed (block transfer
		// completion notification) — unless the WRITE itself carried
		// the notification as an immediate value. Draining sessions
		// notify too: the abort confirm reports the successful-WRITE
		// count, and the sink reconciles arrivals against it before
		// reclaiming the session's granted blocks.
		if !s.cfg.NotifyViaImm {
			s.sendCtrl(&wire.Control{
				Type:    wire.MsgBlockComplete,
				Session: b.session,
				Seq:     b.seq,
				Addr:    b.credit.Addr,
				RKey:    b.credit.RKey,
				Length:  uint32(b.payloadLen),
			})
		}
		if sess != nil {
			sess.inflight--
		}
		s.delivered(sess, b, s.ep.Loop.Now())
		if s.tel.reg != nil {
			s.tel.postLatency.Observe(int64(s.stats.End - b.tPost))
			s.tel.inflight.Set(s.totalInflight())
		}
		s.retire(sess, b)

	case verbs.StatusFlushed:
		// Teardown in progress; drop.
		s.pool.recycle(b)
		if sess != nil && sess.aborting {
			sess.inflight--
			s.maybeFinishAbort(sess)
		}

	default:
		// Failed WRITE: retry with a fresh credit (the old one is
		// considered burned). The QP that failed is dead.
		s.Trace.Emit(trace.Event{Cat: trace.CatError, Name: "write_failed",
			Session: b.session, Block: b.seq, Channel: int32(b.chIdx),
			V1: int64(b.retries + 1), Text: status.String()})
		s.chDead[b.chIdx] = true
		s.stats.Retries++
		s.tel.retransmits.Inc()
		// No retry when the owner died or is draining toward an abort.
		retry := sess != nil && !sess.aborting
		if !retry {
			s.discard(sess, b)
		} else if b.retries++; b.retries > s.cfg.MaxRetries {
			s.fail(fmt.Errorf("%w: block %d/%d after %v", ErrTooManyRetries, b.session, b.seq, status))
			return
		}
		if s.liveChannels() == 0 {
			s.fail(fmt.Errorf("core: all data channels failed: %v", status))
			return
		}
		if retry {
			sess.inflight--
			sess.queued++
			b.setState(BlockLoaded)
			sess.loadedQ.PushFront(b)
		}
		s.pump()
	}
}

// checkSessionCompletion sends DATASET_COMPLETE for drained sessions.
func (s *Source) checkSessionCompletion() {
	for _, sess := range s.rrSessions {
		if sess.completeTx || sess.aborting || !sess.eof || sess.loads > 0 || sess.inflight > 0 ||
			sess.queued > 0 || len(sess.advertised) > 0 || sess.switching {
			continue
		}
		sess.completeTx = true
		s.dropCredits(sess)
		s.Trace.Emit(trace.Event{Cat: trace.CatSession, Name: "complete_tx",
			Session: sess.id, V1: sess.sent, V2: sess.blocks})
		s.sendCtrl(&wire.Control{
			Type: wire.MsgDatasetComplete, Session: sess.id,
			Seq: sess.nextSeq, AssocData: uint64(sess.sent),
		})
	}
}

// dropCredits discards a session's unused credit stash (completion or
// teardown): the sink reclaims the backing blocks when it processes
// the session's DATASET_COMPLETE or ABORT, so our copies are dead.
func (s *Source) dropCredits(sess *srcSession) {
	n := sess.credits.Len()
	if n == 0 {
		return
	}
	invariant.CreditConsume(s.inv, int64(n))
	s.creditCount -= n
	sess.credits = ringq.Ring[wire.Credit]{}
	s.tel.creditStash.Set(int64(s.creditCount))
}

// abortSession starts tearing one session down; the connection
// survives. Queued blocks and credits are released immediately, but
// the session stays registered — draining — until its in-flight loads
// and WRITEs complete, and only then does maybeFinishAbort announce
// the abort to the sink. Announcing earlier would let the sink recycle
// granted blocks that a straggling WRITE could still land in.
func (s *Source) abortSession(sess *srcSession, err error) {
	if sess.aborting || s.sessions[sess.id] != sess {
		return
	}
	sess.aborting = true
	sess.abortErr = err
	sess.stalled = false
	for b, ok := sess.loadedQ.Pop(); ok; b, ok = sess.loadedQ.Pop() {
		s.pool.recycle(b)
		sess.queued--
	}
	s.dropCredits(sess)
	s.maybeFinishAbort(sess)
	s.pump()
}

// maybeFinishAbort completes a draining session's teardown once its
// last in-flight load and WRITE have come home.
func (s *Source) maybeFinishAbort(sess *srcSession) {
	if !sess.aborting || sess.loads > 0 || sess.inflight > 0 || sess.queued > 0 ||
		len(sess.advertised) > 0 {
		return
	}
	if s.sessions[sess.id] != sess {
		return // connection-level teardown already reported it
	}
	s.Trace.Emit(trace.Event{Cat: trace.CatSession, Name: "session_abort",
		Session: sess.id, V1: sess.sent, V2: sess.blocks})
	s.removeSession(sess)
	// AssocData reports the session's successful-WRITE count: the sink
	// reconciles its arrivals against it to decide when reclaiming the
	// session's granted blocks is safe.
	s.sendCtrl(&wire.Control{Type: wire.MsgAbort, Session: sess.id, AssocData: uint64(sess.blocks)})
	sess.onDone(TransferResult{Session: sess.id, Bytes: sess.sent, Blocks: sess.blocks, Err: sess.abortErr})
}

// fail is a fatal connection-level error: every session dies.
func (s *Source) fail(err error) {
	if s.failed != nil || s.closed {
		return
	}
	s.failed = err
	s.Trace.EmitErr(trace.CatError, "conn_failed", err)
	s.failSessions(err)
	if s.onReady != nil {
		cb := s.onReady
		s.onReady = nil
		cb(err)
	}
	if s.OnError != nil {
		s.OnError(err)
	}
}

func (s *Source) failSessions(err error) {
	sessions := append([]*srcSession(nil), s.rrSessions...)
	s.rrSessions = nil
	s.sessions = make(map[uint32]*srcSession)
	for _, sess := range sessions {
		sess.onDone(TransferResult{Session: sess.id, Bytes: sess.sent, Blocks: sess.blocks, Err: err})
	}
	for _, sess := range s.opening {
		sess.onDone(TransferResult{Err: err})
	}
	s.opening = nil
	for _, sess := range s.openQ {
		sess.onDone(TransferResult{Err: err})
	}
	s.openQ = nil
}
