package core

import "time"

// Window-estimator constants: warmup samples before the estimate is
// trusted, the sliding window (in samples) of the RTT minimum filter,
// the BDP headroom multiplier (2× absorbs rate and RTT noise without
// letting the window collapse below the pipe's needs), and how many
// arrivals each delivery-rate sample spans.
const (
	winWarmup    = 16
	winRTTWindow = 64
	winHeadroom  = 2
	winGapEpoch  = 8
)

// epoch turns a stream of event timestamps into fixed-count runs.
// Fabric completions arrive in bursts whose intra-burst gaps say
// nothing about rate, so every rate estimate in this package averages
// over a run of events — total elapsed over the run — instead.
type epoch struct {
	start time.Duration
	n     int
}

// tick records one event at now. Once more than span events have
// accumulated it closes the run, reporting the intervals it covered and
// their total duration; the closing event opens the next run.
func (e *epoch) tick(now time.Duration, span int) (intervals int, elapsed time.Duration, closed bool) {
	if e.n == 0 {
		e.start, e.n = now, 1
		return 0, 0, false
	}
	e.n++
	if e.n <= span {
		return 0, 0, false
	}
	intervals, elapsed = e.n-1, now-e.start
	e.start, e.n = now, 1
	return intervals, elapsed, true
}

// rateWindow sizes an offer window — credits outstanding at the source
// under push, advertisements outstanding at the sink under pull — from
// what the offering side can measure (BBR-style): the windowed-minimum
// offer→notice round trip × the notice arrival rate approximates the
// path's bandwidth-delay product in blocks.
type rateWindow struct {
	rtt      time.Duration // min offer→notice latency over the last winRTTWindow samples
	rttAge   int
	gap      time.Duration // EWMA (gain 1/2) of the epoch-mean inter-arrival gap, 1/rate
	samples  int
	arrivals epoch
}

// sample feeds one notice into the estimator: rtt is the offer's round
// trip, now the arrival timestamp. The RTT minimum filter slides by
// resetting every winRTTWindow samples. Reports whether this arrival
// closed a gap epoch.
func (w *rateWindow) sample(now, rtt time.Duration) (epochClosed bool) {
	w.samples++
	if rtt > 0 && (w.rtt == 0 || rtt < w.rtt || w.rttAge >= winRTTWindow) {
		w.rtt, w.rttAge = rtt, 0
	} else {
		w.rttAge++
	}
	n, elapsed, closed := w.arrivals.tick(now, winGapEpoch)
	if closed && elapsed > 0 {
		mean := elapsed / time.Duration(n)
		if w.gap == 0 {
			w.gap = mean
		} else {
			w.gap += (mean - w.gap) / 2
		}
	}
	return closed
}

// bdp estimates blocks in flight on the path: round trip ÷ mean
// inter-arrival gap (rate × RTT). Zero before any samples.
func (w *rateWindow) bdp() int {
	if w.gap <= 0 || w.rtt <= 0 {
		return 0
	}
	return int(float64(w.rtt) / float64(w.gap))
}

// blocks is the window: winHeadroom × BDP plus depth — the offers the
// peer's own pipeline holds regardless of the path — clamped to
// [max(4, pool/8), pool]. Before warmup it is the whole pool.
func (w *rateWindow) blocks(pool, depth int) int {
	if w.samples < winWarmup || w.gap <= 0 || w.rtt <= 0 {
		return pool
	}
	win := winHeadroom*w.bdp() + depth
	floor := pool / 8
	if floor < 4 {
		floor = 4
	}
	if win < floor {
		win = floor
	}
	if win > pool {
		win = pool
	}
	return win
}
