package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// maxTraceBlocks bounds the blocks whose spans a trace file holds; the
// statistics always use every block recorded.
const maxTraceBlocks = 20000

// blockSpans is one block's residence in the system as the harness saw
// it: handed to the protocol when its Load was called, given back when
// its Store completed. The three spans load, transit and store share
// their end points, so they tile the residence exactly.
type blockSpans struct {
	sess                                     uint32
	off                                      uint64
	loadStart, loadEnd, storeStart, storeEnd int64
}

func (b blockSpans) residence() int64 { return b.storeEnd - b.loadStart }

// tiles reports whether the three spans are ordered and cover the
// residence without gap or overlap.
func (b blockSpans) tiles() bool {
	load, transit, store := b.loadEnd-b.loadStart, b.storeStart-b.loadEnd, b.storeEnd-b.storeStart
	return load >= 0 && transit >= 0 && store >= 0 && load+transit+store == b.residence()
}

// traceStats is what the traced run reads off the harness spans.
type traceStats struct {
	blocks, sessions              int
	transitUs, loadGapUs          []float64
	sessionOpenUs, sessionCloseUs []float64
	meanResidenceNs               float64
}

// join pairs every Load with the Store of the same (session, offset)
// and merges the two halves of each session span.
func (t *tracer) join() ([]blockSpans, []sessionSpan, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct {
		sess uint32
		off  uint64
	}
	loads := make(map[key]ioSpan, len(t.loads))
	for _, l := range t.loads {
		loads[key{l.sess, l.off}] = l
	}
	blocks := make([]blockSpans, 0, len(t.stores))
	for _, s := range t.stores {
		l, ok := loads[key{s.sess, s.off}]
		if !ok {
			return nil, nil, fmt.Errorf("trace: session %d offset %d was stored but never loaded", s.sess, s.off)
		}
		delete(loads, key{s.sess, s.off})
		b := blockSpans{s.sess, s.off, l.start, l.end, s.start, s.end}
		if !b.tiles() {
			return nil, nil, fmt.Errorf("trace: spans of session %d offset %d do not tile its residence: %+v", s.sess, s.off, b)
		}
		blocks = append(blocks, b)
	}
	if len(loads) != 0 {
		return nil, nil, fmt.Errorf("trace: %d blocks were loaded but never stored", len(loads))
	}
	merged := make(map[uint32]*sessionSpan, len(t.sessions)/2)
	for _, s := range t.sessions {
		m := merged[s.sess]
		if m == nil {
			m = &sessionSpan{sess: s.sess}
			merged[s.sess] = m
		}
		if s.srcDone != 0 {
			m.call, m.srcDone = s.call, s.srcDone
		}
		if s.sinkDone != 0 {
			m.sinkDone = s.sinkDone
		}
	}
	sessions := make([]sessionSpan, 0, len(merged))
	for _, m := range merged {
		sessions = append(sessions, *m)
	}
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].sess < sessions[j].sess })
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].loadStart < blocks[j].loadStart })
	return blocks, sessions, nil
}

// analyze derives the harness-span metrics. blocks must be sorted by
// load start, as join returns them.
func analyze(blocks []blockSpans, sessions []sessionSpan) traceStats {
	st := traceStats{blocks: len(blocks), sessions: len(sessions)}
	type ends struct{ firstLoad, lastStore int64 }
	bySess := make(map[uint32]*ends)
	var residence float64
	for i, b := range blocks {
		st.transitUs = append(st.transitUs, float64(b.storeStart-b.loadEnd)/1e3)
		if i+1 < len(blocks) {
			// Overlapping loads (the file source keeps several in
			// flight) leave no gap to speak of.
			st.loadGapUs = append(st.loadGapUs, float64(max(blocks[i+1].loadStart-b.loadEnd, 0))/1e3)
		}
		residence += float64(b.residence())
		e := bySess[b.sess]
		if e == nil {
			e = &ends{firstLoad: b.loadStart}
			bySess[b.sess] = e
		}
		e.firstLoad = min(e.firstLoad, b.loadStart)
		e.lastStore = max(e.lastStore, b.storeEnd)
	}
	if len(blocks) > 0 {
		st.meanResidenceNs = residence / float64(len(blocks))
	}
	for _, s := range sessions {
		if e := bySess[s.sess]; e != nil && s.srcDone != 0 {
			st.sessionOpenUs = append(st.sessionOpenUs, float64(e.firstLoad-s.call)/1e3)
			st.sessionCloseUs = append(st.sessionCloseUs, float64(s.srcDone-e.lastStore)/1e3)
		}
	}
	return st
}

// writeTrace writes the spans as JSON lines: one session span per
// session with its three marks, and under it three spans per block,
// thinned to at most maxTraceBlocks blocks.
func writeTrace(path string, blocks []blockSpans, sessions []sessionSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	stride := (len(blocks) + maxTraceBlocks - 1) / maxTraceBlocks
	fmt.Fprintf(w, `{"name":"trace","sessions":%d,"blocks":%d,"block_stride":%d,"clock":"ns since the traced connection was built"}`+"\n",
		len(sessions), len(blocks), max(stride, 1))
	for _, s := range sessions {
		fmt.Fprintf(w, `{"id":"s%d","name":"session","start_ns":%d,"end_ns":%d,"transfer_call_ns":%d,"src_done_ns":%d,"sink_done_ns":%d}`+"\n",
			s.sess, s.call, max(s.srcDone, s.sinkDone), s.call, s.srcDone, s.sinkDone)
	}
	for i := 0; i < len(blocks); i += max(stride, 1) {
		b := blocks[i]
		for _, sp := range [...]struct {
			name       string
			start, end int64
		}{{"load", b.loadStart, b.loadEnd}, {"transit", b.loadEnd, b.storeStart}, {"store", b.storeStart, b.storeEnd}} {
			fmt.Fprintf(w, `{"id":"s%d/%d/%s","parent":"s%d","name":"%s","offset":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				b.sess, b.off, sp.name, b.sess, sp.name, b.off, sp.start, sp.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
