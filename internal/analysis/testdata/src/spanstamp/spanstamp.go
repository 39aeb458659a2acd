// Package spanstamp is a deliberately broken fixture for fsmtransition's
// span-stamp check: a setState-guarded block stamping its lifecycle into
// the real spans.Recorder, plus every way of stamping outside the guard
// that the pass must catch.
package spanstamp

import "rftp/internal/spans"

type block struct {
	state   uint8
	spanRef spans.Ref
	spans   *spans.Recorder
}

func (b *block) setState(next uint8) {
	b.spanRef = b.spans.Transition(b.spanRef, b.state, next) // guarded: fine
	b.state = next
}

func rogueStamp(rec *spans.Recorder) {
	rec.Transition(spans.RefNone, spans.StateFree, spans.StateLoading) // want `span stamp .* outside setState`
}

func (b *block) skipGuard(next uint8) {
	b.spanRef = b.spans.Transition(b.spanRef, b.state, next) // want `span stamp .* outside setState`
	b.state = next                                           // want `direct write of block.state outside setState`
}

func inClosure(rec *spans.Recorder) func() {
	return func() {
		rec.Transition(spans.RefNone, spans.StateFree, spans.StateLoading) // want `span stamp .* outside setState`
	}
}

func unrelated(rec *spans.Recorder) {
	// Other Recorder methods are not stamps: no finding.
	rec.SetChannel(spans.RefNone, 0)
}

func suppressed(rec *spans.Recorder) {
	rec.Transition(spans.RefNone, spans.StateFree, spans.StateLoading) //lint:allow fsmtransition fixture: proves suppression drops the finding
}
