// Package spans records per-block lifecycle timing and attributes
// pipeline stalls to their cause. It is the "why is this transfer slow
// right now" layer on top of the counter/histogram telemetry: every
// sampled block's FSM transitions (load issue → load done → credit wait
// → send queue → wire → arrival → reassembly → store issue → store
// done) are stamped into a fixed-slot span table, and on block release
// the time spent in each stage is folded into per-stage histograms and
// a critical-path decomposition ("61% credit-starved, 22% disk-bound")
// aggregated globally, per channel, and per session.
//
// The recorder is deliberately cheap enough to leave on in release
// builds: blocks are sampled 1-in-N (unsampled blocks cost one branch
// per transition), a nil *Recorder costs a single branch, and no path
// allocates after construction except the bounded completed-span ring
// used for forensic JSONL dumps. Mutation is single-writer — the
// owning connection loop — so the table needs no locks; concurrent
// readers (the -http endpoint, rftptop) snapshot live slots through a
// per-slot seqlock and retry on torn reads.
package spans

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rftp/internal/telemetry"
)

// Kind selects which half of the block lifecycle a Recorder observes.
type Kind uint8

// Recorder kinds.
const (
	KindSource Kind = iota
	KindSink
)

func (k Kind) String() string {
	if k == KindSink {
		return "sink"
	}
	return "source"
}

// Block FSM states, numerically identical to core.BlockState. The spans
// package cannot import core (core imports spans), so the values are
// mirrored here; core asserts the correspondence in a test.
const (
	StateFree uint8 = iota
	StateLoading
	StateLoaded
	StateSending
	StateWaiting
	StateDataReady
	StateStoring
	numStates
)

// StateName returns the core FSM state name for a mirrored state value.
func StateName(s uint8) string {
	switch s {
	case StateFree:
		return "free"
	case StateLoading:
		return "loading"
	case StateLoaded:
		return "loaded"
	case StateSending:
		return "sending"
	case StateWaiting:
		return "waiting"
	case StateDataReady:
		return "data-ready"
	case StateStoring:
		return "storing"
	default:
		return fmt.Sprintf("state(%d)", s)
	}
}

// Stage is one time-in-state segment of a block's life. Source blocks
// pass through load → credit-wait → send-queue → wire; sink blocks
// through credit → reassembly → store.
type Stage uint8

// Lifecycle stages.
const (
	StageLoad       Stage = iota // Loading residency: disk read in flight
	StageCreditWait              // Loaded residency entered from load/retry: waiting for a credit
	StageSendQueue               // Loaded residency after an ErrSendQueueFull revert, plus Sending residency
	StageWire                    // Waiting residency on the source: WRITE posted → completion
	StageCredit                  // Waiting residency on the sink: credit granted → data arrival
	StageReassembly              // DataReady residency: arrival → store issue (ordering + store-slot wait)
	StageStore                   // Storing residency: store in flight
	numStages

	stageNone Stage = 0xff
)

func (s Stage) String() string {
	switch s {
	case StageLoad:
		return "load"
	case StageCreditWait:
		return "credit_wait"
	case StageSendQueue:
		return "send_queue"
	case StageWire:
		return "wire"
	case StageCredit:
		return "credit"
	case StageReassembly:
		return "reassembly"
	case StageStore:
		return "store"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// stageOf maps "leaving state" to the stage its residency belongs to.
// revert marks a Loaded residency that was entered by a Sending→Loaded
// send-queue-full rollback rather than from a completed load.
func stageOf(kind Kind, state uint8, revert bool) Stage {
	if kind == KindSource {
		switch state {
		case StateLoading:
			return StageLoad
		case StateLoaded:
			if revert {
				return StageSendQueue
			}
			return StageCreditWait
		case StateSending:
			return StageSendQueue
		case StateWaiting:
			return StageWire
		}
		return stageNone
	}
	switch state {
	case StateWaiting:
		return StageCredit
	case StateDataReady:
		return StageReassembly
	case StateStoring:
		return StageStore
	}
	return stageNone
}

// Ref identifies a live slot in a Recorder's span table. RefNone marks
// a block that is not being sampled this lifecycle.
type Ref int32

// RefNone is the "not sampled" ref; all Recorder methods accept it.
const RefNone Ref = -1

// slot is one span-table entry. Fields are written only by the owning
// loop; ver is a seqlock (odd while mutating) for concurrent readers.
type slot struct {
	ver     atomic.Uint32
	active  bool
	session uint32
	seq     uint32
	channel int32
	state   uint8
	revert  bool
	begin   int64 // ns on the recorder clock: lifecycle start
	enter   int64 // ns: current state entry
	durs    [numStages]int64
}

// Record is one completed span retained for forensic export.
type Record struct {
	Kind    string        `json:"kind"`
	Session uint32        `json:"session"`
	Seq     uint32        `json:"seq"`
	Channel int32         `json:"channel"`
	Begin   time.Duration `json:"begin_ns"`
	End     time.Duration `json:"end_ns"`
	durs    [numStages]int64
}

// Stages returns the per-stage durations of the record (zero stages
// omitted).
func (r Record) Stages() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for st, d := range r.durs {
		if d > 0 {
			out[Stage(st).String()] = time.Duration(d)
		}
	}
	return out
}

type recordJSON struct {
	Kind    string           `json:"kind"`
	Session uint32           `json:"session"`
	Seq     uint32           `json:"seq"`
	Channel int32            `json:"channel"`
	Begin   int64            `json:"begin_ns"`
	End     int64            `json:"end_ns"`
	Stages  map[string]int64 `json:"stages"`
}

// MarshalJSON renders the record with stage durations as a name→ns map.
func (r Record) MarshalJSON() ([]byte, error) {
	out := recordJSON{
		Kind: r.Kind, Session: r.Session, Seq: r.Seq, Channel: r.Channel,
		Begin: int64(r.Begin), End: int64(r.End),
		Stages: make(map[string]int64, numStages),
	}
	for st, d := range r.durs {
		if d > 0 {
			out.Stages[Stage(st).String()] = d
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (r *Record) UnmarshalJSON(b []byte) error {
	var in recordJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*r = Record{
		Kind: in.Kind, Session: in.Session, Seq: in.Seq, Channel: in.Channel,
		Begin: time.Duration(in.Begin), End: time.Duration(in.End),
	}
	for name, d := range in.Stages {
		for st := Stage(0); st < numStages; st++ {
			if st.String() == name {
				r.durs[st] = d
			}
		}
	}
	return nil
}

// Config parameterizes a Recorder.
type Config struct {
	// Sample records 1-in-Sample block lifecycles. 1 records every
	// block; values below 1 disable recording (New returns nil).
	Sample int
	// Slots bounds concurrently-live sampled spans (default 256).
	// Size it at or above the block-pool size to never drop at
	// Sample=1.
	Slots int
	// Ring bounds retained completed spans for JSONL export
	// (default 256).
	Ring int
	// Clock is the owning loop's clock (defaults to wall time).
	Clock func() time.Duration
	// Registry receives the aggregates: span_<stage>_ns histograms,
	// path_<stage>_ns counters (plus per-channel chan<N> and
	// per-session sess<N> children), spans_completed, spans_dropped.
	Registry *telemetry.Registry
	// MaxSessions bounds per-session aggregation children
	// (default 32); sessions beyond the cap still aggregate
	// globally.
	MaxSessions int
}

// Recorder stamps block lifecycles into a fixed-slot span table and
// aggregates completed spans. A nil *Recorder is valid and free.
//
// Per-slot stamping (Transition between non-Free states, SetKey,
// SetChannel) is lock-free: a block's ref is stamped only by the one
// event loop that owns the block's connection, and the per-slot
// seqlock covers concurrent readers. Slot allocation and release touch
// recorder-wide structures (free list, sampling tick, completed ring,
// aggregate maps) and take mu.
type Recorder struct {
	kind   Kind
	clock  func() time.Duration
	sample uint32
	tick   uint32
	mu     sync.Mutex // guards free/tick/ring/aggregates (begin+finalize)
	slots  []slot
	free   []int32

	reg         *telemetry.Registry
	stageHist   [numStages]*telemetry.Histogram
	pathNs      [numStages]*telemetry.Counter
	completed   *telemetry.Counter
	dropped     *telemetry.Counter
	chPath      map[int32]*[numStages]*telemetry.Counter
	sessPath    map[uint32]*[numStages]*telemetry.Counter
	maxSessions int

	ring     []Record
	ringNext int
	ringFull bool
}

// New creates a recorder of the given kind. cfg.Sample < 1 means
// recording is disabled: New returns nil, and the nil recorder's
// methods cost one branch.
func New(kind Kind, cfg Config) *Recorder {
	if cfg.Sample < 1 {
		return nil
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 256
	}
	if cfg.Ring <= 0 {
		cfg.Ring = 256
	}
	if cfg.Clock == nil {
		start := time.Now()
		cfg.Clock = func() time.Duration { return time.Since(start) }
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 32
	}
	r := &Recorder{
		kind:        kind,
		clock:       cfg.Clock,
		sample:      uint32(cfg.Sample),
		slots:       make([]slot, cfg.Slots),
		free:        make([]int32, 0, cfg.Slots),
		reg:         cfg.Registry,
		chPath:      make(map[int32]*[numStages]*telemetry.Counter),
		sessPath:    make(map[uint32]*[numStages]*telemetry.Counter),
		maxSessions: cfg.MaxSessions,
		ring:        make([]Record, cfg.Ring),
	}
	for i := cfg.Slots - 1; i >= 0; i-- {
		r.free = append(r.free, int32(i))
	}
	if cfg.Registry != nil {
		for st := Stage(0); st < numStages; st++ {
			if stageKind(st) != kind {
				continue
			}
			r.stageHist[st] = cfg.Registry.Histogram("span_"+st.String()+"_ns", telemetry.DurationBuckets()...)
			r.pathNs[st] = cfg.Registry.Counter("path_" + st.String() + "_ns")
		}
		r.completed = cfg.Registry.Counter("spans_completed")
		r.dropped = cfg.Registry.Counter("spans_dropped")
	}
	return r
}

// stageKind says which recorder kind a stage belongs to.
func stageKind(st Stage) Kind {
	if st >= StageCredit {
		return KindSink
	}
	return KindSource
}

// Transition stamps one FSM transition for the block owning ref and
// returns the ref for the block to carry forward: a fresh ref (or
// RefNone if unsampled) when the block leaves Free, RefNone after the
// block returns to Free and the span is folded into the aggregates.
// This is the only stamping entry point, and it must be called from the
// block FSM's setState — rftplint's fsmtransition pass enforces that every
// call site is inside a setState body, so the span table can never
// disagree with the FSM.
func (r *Recorder) Transition(ref Ref, from, to uint8) Ref {
	if r == nil {
		return RefNone
	}
	if from == StateFree {
		return r.begin(to)
	}
	if ref == RefNone {
		return RefNone
	}
	now := int64(r.clock())
	s := &r.slots[ref]
	s.ver.Add(1)
	if st := stageOf(r.kind, from, s.revert); st != stageNone {
		s.durs[st] += now - s.enter
	}
	s.revert = from == StateSending && to == StateLoaded
	s.state = to
	s.enter = now
	if to == StateFree {
		r.mu.Lock()
		r.finalize(ref, s, now)
		r.mu.Unlock()
		s.ver.Add(1)
		return RefNone
	}
	s.ver.Add(1)
	return ref
}

// begin applies the 1-in-N sampling decision and claims a slot.
func (r *Recorder) begin(to uint8) Ref {
	r.mu.Lock()
	r.tick++
	if r.tick%r.sample != 0 {
		r.mu.Unlock()
		return RefNone
	}
	if len(r.free) == 0 {
		r.mu.Unlock()
		r.dropped.Add(1)
		return RefNone
	}
	i := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	r.mu.Unlock()
	now := int64(r.clock())
	s := &r.slots[i]
	s.ver.Add(1)
	s.active = true
	s.session, s.seq, s.channel = 0, 0, -1
	s.state = to
	s.revert = false
	s.begin, s.enter = now, now
	s.durs = [numStages]int64{}
	s.ver.Add(1)
	return Ref(i)
}

// finalize folds a completed span into the aggregates and releases the
// slot. Called with the slot's seqlock already held odd and r.mu held.
func (r *Recorder) finalize(ref Ref, s *slot, now int64) {
	r.completed.Add(1)
	chp := r.channelPath(s.channel)
	sessp := r.sessionPath(s.session)
	for st, d := range s.durs {
		if d <= 0 {
			continue
		}
		if h := r.stageHist[st]; h != nil {
			h.Observe(d)
		}
		r.pathNs[st].Add(d)
		if chp != nil {
			chp[st].Add(d)
		}
		if sessp != nil {
			sessp[st].Add(d)
		}
	}
	rec := Record{
		Kind: r.kind.String(), Session: s.session, Seq: s.seq,
		Channel: s.channel, Begin: time.Duration(s.begin),
		End: time.Duration(now), durs: s.durs,
	}
	r.ring[r.ringNext] = rec
	r.ringNext++
	if r.ringNext == len(r.ring) {
		r.ringNext, r.ringFull = 0, true
	}
	s.active = false
	r.free = append(r.free, int32(ref))
}

// channelPath returns (lazily creating) the per-channel path counters.
func (r *Recorder) channelPath(ch int32) *[numStages]*telemetry.Counter {
	if ch < 0 || r.reg == nil {
		return nil
	}
	if p, ok := r.chPath[ch]; ok {
		return p
	}
	child := r.reg.Child(fmt.Sprintf("chan%d", ch))
	p := new([numStages]*telemetry.Counter)
	for st := Stage(0); st < numStages; st++ {
		p[st] = child.Counter("path_" + st.String() + "_ns")
	}
	r.chPath[ch] = p
	return p
}

// sessionPath returns (lazily creating) the per-session path counters,
// or nil past the session cap.
func (r *Recorder) sessionPath(sess uint32) *[numStages]*telemetry.Counter {
	if sess == 0 || r.reg == nil {
		return nil
	}
	if p, ok := r.sessPath[sess]; ok {
		return p
	}
	if len(r.sessPath) >= r.maxSessions {
		return nil
	}
	child := r.reg.Child(fmt.Sprintf("sess%d", sess))
	p := new([numStages]*telemetry.Counter)
	for st := Stage(0); st < numStages; st++ {
		p[st] = child.Counter("path_" + st.String() + "_ns")
	}
	r.sessPath[sess] = p
	return p
}

// SetKey records the (session, seq) identity of the block owning ref.
// Identity is assigned by the protocol after the block leaves Free, so
// this is a separate call from Transition.
func (r *Recorder) SetKey(ref Ref, session, seq uint32) {
	if r == nil || ref == RefNone {
		return
	}
	s := &r.slots[ref]
	s.ver.Add(1)
	s.session, s.seq = session, seq
	s.ver.Add(1)
}

// SetChannel records the data channel the block was posted on.
func (r *Recorder) SetChannel(ref Ref, ch int) {
	if r == nil || ref == RefNone {
		return
	}
	s := &r.slots[ref]
	s.ver.Add(1)
	s.channel = int32(ch)
	s.ver.Add(1)
}

// ActiveSpan is a point-in-time view of one live sampled block, for the
// forensics endpoints.
type ActiveSpan struct {
	Session uint32        `json:"session"`
	Seq     uint32        `json:"seq"`
	Channel int32         `json:"channel"`
	State   string        `json:"state"`
	Age     time.Duration `json:"age_ns"`   // since lifecycle start
	InState time.Duration `json:"state_ns"` // since current state entry
}

// Active snapshots the live span table. Safe to call from any
// goroutine; torn reads are retried via the per-slot seqlock.
func (r *Recorder) Active() []ActiveSpan {
	if r == nil {
		return nil
	}
	now := int64(r.clock())
	var out []ActiveSpan
	for i := range r.slots {
		s := &r.slots[i]
		for attempt := 0; attempt < 8; attempt++ {
			v1 := s.ver.Load()
			if v1%2 != 0 {
				continue
			}
			active, session, seq := s.active, s.session, s.seq
			channel, state := s.channel, s.state
			begin, enter := s.begin, s.enter
			if s.ver.Load() != v1 {
				continue
			}
			if active {
				out = append(out, ActiveSpan{
					Session: session, Seq: seq, Channel: channel,
					State: StateName(state),
					Age:   time.Duration(now - begin), InState: time.Duration(now - enter),
				})
			}
			break
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Session != out[j].Session {
			return out[i].Session < out[j].Session
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Completed returns the retained completed spans, oldest first.
// Single-writer: call from the owning loop, or after it has stopped.
func (r *Recorder) Completed() []Record {
	if r == nil {
		return nil
	}
	if !r.ringFull {
		return append([]Record(nil), r.ring[:r.ringNext]...)
	}
	out := make([]Record, 0, len(r.ring))
	out = append(out, r.ring[r.ringNext:]...)
	return append(out, r.ring[:r.ringNext]...)
}

// WriteJSONL dumps the retained completed spans as newline-delimited
// JSON for offline forensics.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range r.Completed() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decomposition reads the critical-path split out of a telemetry
// snapshot holding path_<stage>_ns counters: each stage's share of the
// total attributed time, in [0,1]. Returns nil when nothing was
// attributed.
func Decomposition(snap *telemetry.Snapshot) map[string]float64 {
	if snap == nil {
		return nil
	}
	var total int64
	parts := make(map[string]int64)
	for name, v := range snap.Counters {
		if !strings.HasPrefix(name, "path_") || !strings.HasSuffix(name, "_ns") || v <= 0 {
			continue
		}
		stage := strings.TrimSuffix(strings.TrimPrefix(name, "path_"), "_ns")
		parts[stage] = v
		total += v
	}
	if total == 0 {
		return nil
	}
	out := make(map[string]float64, len(parts))
	for stage, v := range parts {
		out[stage] = float64(v) / float64(total)
	}
	return out
}
