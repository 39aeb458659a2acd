package storage

import "rftp/internal/core"

// AsyncSource moves any BlockSource's Load off the protocol loop onto
// an Engine worker. Use it around synchronous sources (core.ReaderSource
// over a pipe, a compressing reader) so a slow read stalls a worker, not
// the event loop. The serial one-Load-at-a-time contract is preserved:
// the wrapper adds no concurrency, only detachment.
type AsyncSource struct {
	Inner core.BlockSource
	Eng   *Engine
}

// NewAsyncSource wraps inner on eng.
func NewAsyncSource(inner core.BlockSource, eng *Engine) *AsyncSource {
	return &AsyncSource{Inner: inner, Eng: eng}
}

// Load implements core.BlockSource.
func (a *AsyncSource) Load(p []byte, capacity int, done func(int, bool, error)) {
	a.Eng.submit(func() { a.Inner.Load(p, capacity, done) })
}
