// Package watch renders live transfer forensics from successive
// telemetry snapshots: goodput (byte-counter deltas over the refresh
// interval), the credit window, inflight storage operations,
// session-manager occupancy (active / queued / rejected tenants), the
// critical-path stage decomposition, and the top pipeline stall cause
// from the span layer's stall attributor.
//
// The renderer is shared by `rftpd -watch` (polling the in-process
// registry) and `cmd/rftptop` (polling a remote /debug/telemetry
// endpoint); both redraw one compact frame per second.
package watch

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"rftp/internal/spans"
	"rftp/internal/telemetry"
)

// Renderer accumulates snapshot-to-snapshot deltas and renders frames.
// Not safe for concurrent use; drive it from one polling goroutine.
type Renderer struct {
	// ANSI enables in-place redraw (cursor-up + erase); off, frames
	// append (suitable for logs and tests).
	ANSI bool

	prevTx, prevRx int64
	prevAt         time.Time
	frames         int
	lastLines      int
}

// New creates a renderer.
func New() *Renderer { return &Renderer{} }

// tree is the recursive aggregate of one snapshot: watch does not care
// where in the registry tree the protocol counters live (rftpd nests
// them under conn children, rftp keeps them at the root).
type tree struct {
	tx, rx       int64 // bytes_posted / bytes_arrived
	creditWindow int64 // max across tree (a gauge; 0 = unknown/fixed)
	credits      int64 // credits_outstanding + credit_stash
	loads        int64 // loads_inflight
	stores       int64 // stores_inflight
	ioInflight   int64 // storage engine io_inflight
	blocks       int64 // blocks_inflight
	spansDone    int64
	sessActive   int64            // sessions_active (session-manager occupancy)
	sessQueued   int64            // sessions_queued
	sessRejected int64            // sessions_rejected
	pathNs       map[string]int64 // stage -> cumulative ns on the critical path
}

func collect(s *telemetry.Snapshot, t *tree) {
	if s == nil {
		return
	}
	t.tx += s.Counter("bytes_posted")
	t.rx += s.Counter("bytes_arrived")
	t.spansDone += s.Counter("spans_completed")
	t.sessRejected += s.Counter("sessions_rejected")
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "path_") && strings.HasSuffix(name, "_ns") {
			// Channel/session children repeat the totals; only count
			// nodes that also carry the completion counter.
			if s.Counter("spans_completed") > 0 {
				t.pathNs[strings.TrimSuffix(strings.TrimPrefix(name, "path_"), "_ns")] += v
			}
		}
	}
	for name, g := range s.Gauges {
		switch name {
		case "credit_window":
			if g.Value > t.creditWindow {
				t.creditWindow = g.Value
			}
		case "credits_outstanding", "credit_stash":
			t.credits += g.Value
		case "loads_inflight":
			t.loads += g.Value
		case "stores_inflight":
			t.stores += g.Value
		case "io_inflight":
			t.ioInflight += g.Value
		case "blocks_inflight":
			t.blocks += g.Value
		case "sessions_active":
			t.sessActive += g.Value
		case "sessions_queued":
			t.sessQueued += g.Value
		}
	}
	for _, c := range s.Children {
		collect(c, t)
	}
}

// Frame renders one frame from the snapshot taken at the given time.
// The first frame has no rate baseline and reports cumulative totals.
func (r *Renderer) Frame(snap *telemetry.Snapshot, at time.Time) []string {
	t := &tree{pathNs: map[string]int64{}}
	collect(snap, t)

	var lines []string
	if r.frames == 0 || !at.After(r.prevAt) {
		lines = append(lines, fmt.Sprintf("goodput     tx %s  rx %s (total)",
			sizeLabel(t.tx), sizeLabel(t.rx)))
	} else {
		dt := at.Sub(r.prevAt).Seconds()
		lines = append(lines, fmt.Sprintf("goodput     tx %6.2f Gbps  rx %6.2f Gbps",
			float64(t.tx-r.prevTx)*8/dt/1e9, float64(t.rx-r.prevRx)*8/dt/1e9))
	}
	r.prevTx, r.prevRx, r.prevAt = t.tx, t.rx, at
	r.frames++

	credit := "fixed"
	if t.creditWindow > 0 {
		credit = fmt.Sprintf("%d blocks", t.creditWindow)
	}
	lines = append(lines, fmt.Sprintf("credit      window %s, %d outstanding", credit, t.credits))
	lines = append(lines, fmt.Sprintf("inflight    %d blocks, %d loads, %d stores, %d storage ops",
		t.blocks, t.loads, t.stores, t.ioInflight))
	if t.sessActive+t.sessQueued+t.sessRejected > 0 {
		lines = append(lines, fmt.Sprintf("sessions    %d active, %d queued, %d rejected",
			t.sessActive, t.sessQueued, t.sessRejected))
	}

	if cause, ns, share := spans.TopStall(snap); ns > 0 {
		lines = append(lines, fmt.Sprintf("top stall   %s (%s, %d%% of attributed stall time)",
			cause, time.Duration(ns).Round(time.Millisecond), int(share*100)))
	} else {
		lines = append(lines, "top stall   none attributed")
	}

	if t.spansDone > 0 && len(t.pathNs) > 0 {
		var total int64
		stages := make([]string, 0, len(t.pathNs))
		for st := range t.pathNs {
			stages = append(stages, st)
			total += t.pathNs[st]
		}
		sort.Slice(stages, func(i, j int) bool { return t.pathNs[stages[i]] > t.pathNs[stages[j]] })
		parts := make([]string, 0, len(stages))
		for _, st := range stages {
			parts = append(parts, fmt.Sprintf("%s %d%%", st, t.pathNs[st]*100/total))
		}
		lines = append(lines, fmt.Sprintf("block path  %s (%d spans)", strings.Join(parts, ", "), t.spansDone))
	}
	return lines
}

// Render writes one frame, redrawing in place when ANSI is on.
func (r *Renderer) Render(w io.Writer, snap *telemetry.Snapshot, at time.Time) error {
	lines := r.Frame(snap, at)
	var sb strings.Builder
	if r.ANSI && r.lastLines > 0 {
		fmt.Fprintf(&sb, "\x1b[%dA\x1b[J", r.lastLines)
	}
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	r.lastLines = len(lines)
	_, err := io.WriteString(w, sb.String())
	return err
}

// Run polls fetch every interval and renders frames to w until fetch
// returns an error or done is closed. A nil snapshot with nil error
// renders a "waiting" placeholder (server up, telemetry not attached
// yet).
func (r *Renderer) Run(w io.Writer, fetch func() (*telemetry.Snapshot, error), interval time.Duration, done <-chan struct{}) error {
	if interval <= 0 {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		snap, err := fetch()
		if err != nil {
			return err
		}
		if snap == nil {
			fmt.Fprintln(w, "waiting for telemetry...")
			r.lastLines = 1
		} else if err := r.Render(w, snap, time.Now()); err != nil {
			return err
		}
		select {
		case <-done:
			return nil
		case <-tick.C:
		}
	}
}

func sizeLabel(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
