// Package unguarded stamps spans in a package that declares no
// setState-guarded state field: the span-stamp check must still run
// here, with no setState body to excuse any stamp.
package unguarded

import "rftp/internal/spans"

func stamp(rec *spans.Recorder) {
	rec.Transition(spans.RefNone, spans.StateFree, spans.StateLoading) // want `span stamp .* outside setState`
}
