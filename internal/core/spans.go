package core

// Span and stall-attribution wiring: AttachSpans mirrors
// AttachTelemetry (resolve once, nil when detached) and hands every
// pool block a recorder handle so setState can stamp transitions. The
// stall trackers are fed from the pump tails, where the endpoint's
// ledgers (loaded queue, credit stash, load/store inflight, reassembly
// maps) describe exactly which resource is binding right now.

import (
	"time"

	"rftp/internal/spans"
	"rftp/internal/telemetry"
)

// AttachSpans wires the source to a lifecycle span recorder and stall
// tracker registered under reg. sample records 1-in-sample block
// lifecycles; sample < 1 disables span recording (leaving a single nil
// check per transition) while stall attribution stays on. Call before
// Start, from the loop or while it is not running.
func (s *Source) AttachSpans(reg *telemetry.Registry, sample int) {
	s.spans = s.pool.attachSpans(spans.KindSource, reg, sample, s.ep.Loop.Now)
	s.stalls = spans.NewStallTracker(reg, s.ep.Loop.Now)
}

// attachSpans builds a recorder with one slot per pool block and hands
// every block its handle.
func (p *pool) attachSpans(kind spans.Kind, reg *telemetry.Registry, sample int, clock func() time.Duration) *spans.Recorder {
	rec := spans.New(kind, spans.Config{Sample: sample, Slots: len(p.blocks), Clock: clock, Registry: reg})
	for _, b := range p.blocks {
		b.spans = rec
	}
	return rec
}

// Spans returns the attached span recorder (nil when detached or
// disabled by sampling).
func (s *Source) Spans() *spans.Recorder { return s.spans }

// noteStall classifies the source pipeline at the end of a pump step:
// which single resource, if available now, would let it post another
// block. Loaded blocks with an empty credit stash are credit
// starvation; loaded blocks despite credits mean every channel is at
// depth or saturated. With nothing loaded, outstanding loads only
// indicate a storage bottleneck when a session has actually hit its
// load-depth cap — at line rate the pool is drained by blocks waiting
// on WRITE acks and every freed block instantly re-issues as a load,
// so a part-filled load window with the pool held on the wire is
// wire-bound, not disk-bound.
func (s *Source) noteStall() {
	if s.stalls == nil {
		return
	}
	loads := s.totalLoads()
	queuedPush, queuedPull := 0, 0
	for _, sess := range s.rrSessions {
		if sess.mode == ModePull && !sess.switching {
			queuedPull += len(sess.loadedQ)
		} else {
			queuedPush += len(sess.loadedQ)
		}
	}
	var c spans.Cause
	switch {
	case queuedPush > 0 && s.creditCount == 0:
		c = spans.CauseCreditStarved
	case queuedPush > 0:
		c = spans.CauseSendQueueSaturated
	case queuedPull > 0:
		// Loaded blocks on a pull session wait only on the advertise
		// window: the sink has not yet retired enough READs for the
		// adaptive window to admit more advertisements.
		c = spans.CauseReadInflightFull
	case loads > 0 && s.loadsAtDepth():
		c = spans.CauseLoadPending
	case s.totalInflight() > 0:
		// chInflight counts blocks handed to the shards (sending or
		// waiting on the wire) and is control-owned; inspecting block
		// states here would race with the shards that own them.
		c = spans.CauseWireBound
	case s.advertCount > 0:
		// Everything loaded is advertised and the sink holds the ball:
		// the pipeline is bound by the READs it has yet to issue or
		// complete against our exposed regions.
		c = spans.CauseReadWireBound
	case loads > 0:
		c = spans.CauseLoadPending
	}
	s.stalls.Note(c)
}

// loadsAtDepth reports whether any active session has its full
// load-depth window outstanding against storage, i.e. the disk is the
// resource the pipeline is genuinely waiting on.
func (s *Source) loadsAtDepth() bool {
	for _, sess := range s.rrSessions {
		if sess.eof || sess.aborting {
			continue
		}
		if sess.loads >= sess.loadDepth(&s.cfg) {
			return true
		}
	}
	return false
}

// AttachSpans wires the sink to a lifecycle span recorder and stall
// tracker registered under reg, with the same sampling contract as the
// source's. The sink's pool does not exist until block-size
// negotiation, so attachment is deferred to pool creation when needed.
func (k *Sink) AttachSpans(reg *telemetry.Registry, sample int) {
	k.spanReg, k.spanSample = reg, sample
	k.stalls = spans.NewStallTracker(reg, k.ep.Loop.Now)
	if k.pool != nil {
		k.attachPoolSpans()
	}
}

// attachPoolSpans builds the sink recorder once the pool exists.
func (k *Sink) attachPoolSpans() {
	k.spans = k.pool.attachSpans(spans.KindSink, k.spanReg, k.spanSample, k.ep.Loop.Now)
}

// Spans returns the attached span recorder (nil when detached,
// disabled, or before block-size negotiation).
func (k *Sink) Spans() *spans.Recorder { return k.spans }

// noteStall classifies the sink pipeline after arrivals and store
// completions: a session with a backlog and all store slots busy is
// store-bound; an in-order session holding out-of-order blocks it
// cannot deliver is waiting on a reassembly gap.
func (k *Sink) noteStall() {
	if k.stalls == nil {
		return
	}
	var c spans.Cause
	for _, sess := range k.sessions {
		if sess.finished {
			continue
		}
		backlog := len(sess.ready) + len(sess.storeQ)
		if backlog > 0 && sess.storing >= k.cfg.StoreDepth {
			c = spans.CauseStorePending
			break
		}
		if sess.offsetSink == nil && len(sess.ready) > 0 {
			if _, ok := sess.ready[sess.nextDeliver]; !ok {
				// Keep scanning: a store-bound session outranks a gap.
				c = spans.CauseReassemblyGap
			}
		}
	}
	if c == spans.CauseNone && k.pool != nil && len(k.pool.free) > 0 {
		// Free memory exists, yet some tenant holds zero credits: the
		// binding resource is a scheduling slot, not the pool. Pull
		// sessions hold no credits by design, so the scan skips them.
		for _, sess := range k.schedOrder {
			if !sess.finished && !sess.haveLast && sess.granted == 0 && sess.mode != ModePull {
				c = spans.CauseSchedWait
				break
			}
		}
	}
	if c == spans.CauseNone {
		// Pull-side diagnoses, least to most upstream: advertisements
		// queued but no free block or READ slot; READs on the wire; or a
		// live pull session with resources to spare waiting on the
		// source to advertise.
		fetchBacklog, pullLive := 0, false
		for _, sess := range k.sessions {
			if sess.finished || sess.mode != ModePull {
				continue
			}
			fetchBacklog += len(sess.fetchQ)
			if !sess.haveLast {
				pullLive = true
			}
		}
		switch {
		case fetchBacklog > 0:
			c = spans.CauseReadInflightFull
		case k.readsInflight > 0:
			c = spans.CauseReadWireBound
		case pullLive && k.pool != nil && len(k.pool.free) > 0:
			c = spans.CauseAdvertStarved
		}
	}
	k.stalls.Note(c)
}
