package core

import (
	"fmt"

	"rftp/internal/telemetry"
)

// grantReason classifies why the sink issued credits, mirroring the
// paper's credit policies: the initial window at session setup, the
// active-feedback grant per consumed block, the re-advertise-on-free
// extension, and the explicit on-demand request path.
type grantReason uint8

const (
	grantInitial grantReason = iota
	grantOnConsume
	grantOnFree
	grantOnDemand

	// grantReasons sizes per-reason arrays.
	grantReasons = int(grantOnDemand) + 1
)

func (r grantReason) String() string {
	switch r {
	case grantInitial:
		return "initial"
	case grantOnConsume:
		return "on_consume"
	case grantOnFree:
		return "on_free"
	case grantOnDemand:
		return "on_demand"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// grantTraceNames name each reason's grant trace event, built once so
// that tracing a grant builds no string.
var grantTraceNames = func() (names [grantReasons]string) {
	for r := range names {
		names[r] = "grant_" + grantReason(r).String()
	}
	return names
}()

// reassemblyBuckets bounds the sink's out-of-order occupancy histogram
// (how many data-ready blocks wait on the in-order delivery cursor).
func reassemblyBuckets() []int64 {
	return []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

// creditBatchBuckets spans the credit-coalescer's batch sizes, 1 (no
// coalescing) through wire.MaxCreditsPerMsg.
func creditBatchBuckets() []int64 {
	return []int64{1, 2, 4, 8, 16, 32, 64}
}

// sourceTelemetry holds the source's metric handles, resolved once at
// attach time so hot paths touch atomics directly. The zero value is
// the detached state: every handle is nil, and a nil handle's methods
// are no-ops, so call sites need no guard of their own. Only work
// beyond a handle call (a clock read, a sum over sessions, indexing the
// per-channel slices) checks reg != nil first.
type sourceTelemetry struct {
	reg *telemetry.Registry

	blocksPosted *telemetry.Counter
	bytesPosted  *telemetry.Counter
	retransmits  *telemetry.Counter
	creditStalls *telemetry.Counter
	creditsRecv  *telemetry.Counter
	ctrlMsgs     *telemetry.Counter
	inflight     *telemetry.Gauge
	creditStash  *telemetry.Gauge
	// loadsInflight tracks Loads issued but not completed across all
	// sessions (the storage pipeline depth actually achieved; bounded by
	// Config.LoadDepth per session).
	loadsInflight *telemetry.Gauge

	// Pull-mode: blocks advertised to the sink (cumulative), blocks
	// currently advertised and not yet fetched, and push<->pull mode
	// transitions completed by the hybrid controller.
	advertsPosted      *telemetry.Counter
	advertsOutstanding *telemetry.Gauge
	modeSwitches       *telemetry.Counter

	// FSM residency: Loading→Loaded, Loaded→Sending (credit+channel
	// wait), and post→completion round trip.
	loadLatency *telemetry.Histogram
	creditWait  *telemetry.Histogram
	postLatency *telemetry.Histogram

	chBlocks []*telemetry.Counter
	chBytes  []*telemetry.Counter
}

// AttachTelemetry wires the source to a registry. Call before Start,
// from the loop or before any fabric activity. A nil registry detaches.
func (s *Source) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.tel = sourceTelemetry{}
		return
	}
	t := sourceTelemetry{
		reg:                reg,
		blocksPosted:       reg.Counter("blocks_posted"),
		bytesPosted:        reg.Counter("bytes_posted"),
		retransmits:        reg.Counter("retransmits"),
		creditStalls:       reg.Counter("credit_stalls"),
		creditsRecv:        reg.Counter("credits_received"),
		ctrlMsgs:           reg.Counter("ctrl_msgs"),
		inflight:           reg.Gauge("blocks_inflight"),
		creditStash:        reg.Gauge("credit_stash"),
		loadsInflight:      reg.Gauge("loads_inflight"),
		advertsPosted:      reg.Counter("adverts_posted"),
		advertsOutstanding: reg.Gauge("adverts_outstanding"),
		modeSwitches:       reg.Counter("mode_switches"),
		loadLatency:        reg.Histogram("load_latency", telemetry.DurationBuckets()...),
		creditWait:         reg.Histogram("credit_wait", telemetry.DurationBuckets()...),
		postLatency:        reg.Histogram("post_latency", telemetry.DurationBuckets()...),
	}
	for i := range s.ep.Data {
		ch := reg.Child(fmt.Sprintf("chan%d", i))
		t.chBlocks = append(t.chBlocks, ch.Counter("blocks"))
		t.chBytes = append(t.chBytes, ch.Counter("bytes"))
	}
	s.tel = t
}

// Telemetry returns the attached registry (nil when detached).
func (s *Source) Telemetry() *telemetry.Registry { return s.tel.reg }

// sinkTelemetry is the receive side's handle set (same zero-value
// contract as sourceTelemetry).
type sinkTelemetry struct {
	reg *telemetry.Registry

	blocksArrived *telemetry.Counter
	bytesArrived  *telemetry.Counter
	ctrlMsgs      *telemetry.Counter
	granted       *telemetry.Gauge
	// storesInflight tracks Stores issued but not completed across all
	// sessions (bounded by Config.StoreDepth per session).
	storesInflight *telemetry.Gauge
	// pendingGrants is the coalescer's unflushed batch; creditWindow is
	// the current adaptive (or overridden) target for credits
	// outstanding at the source.
	pendingGrants *telemetry.Gauge
	creditWindow  *telemetry.Gauge
	// Session-manager occupancy: sessions admitted and in the scheduler
	// rotation, SESSION_REQs parked in the admission queue, and requests
	// turned away busy.
	sessionsActive   *telemetry.Gauge
	sessionsQueued   *telemetry.Gauge
	sessionsRejected *telemetry.Counter

	// grants[reason] counts credits issued under each policy leg.
	grants [grantReasons]*telemetry.Counter

	// Pull-mode: RDMA READs posted (cumulative), READs currently on the
	// wire across all channels, and push<->pull transitions completed.
	readsPosted   *telemetry.Counter
	readsInflight *telemetry.Gauge
	modeSwitches  *telemetry.Counter

	// creditLatency is grant→consume (the credit's round trip through
	// the source); storeLatency is data-ready→stored; reassembly is the
	// out-of-order occupancy observed at each arrival; creditBatchSize
	// is credits per MR_INFO_RESPONSE (the coalescer's yield).
	creditLatency   *telemetry.Histogram
	storeLatency    *telemetry.Histogram
	reassembly      *telemetry.Histogram
	creditBatchSize *telemetry.Histogram
}

// AttachTelemetry wires the sink to a registry. Call before the peer's
// Source starts. A nil registry detaches.
func (k *Sink) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		k.tel = sinkTelemetry{}
		return
	}
	t := sinkTelemetry{
		reg:              reg,
		blocksArrived:    reg.Counter("blocks_arrived"),
		bytesArrived:     reg.Counter("bytes_arrived"),
		ctrlMsgs:         reg.Counter("ctrl_msgs"),
		granted:          reg.Gauge("credits_outstanding"),
		storesInflight:   reg.Gauge("stores_inflight"),
		pendingGrants:    reg.Gauge("pending_grants"),
		creditWindow:     reg.Gauge("credit_window"),
		sessionsActive:   reg.Gauge("sessions_active"),
		sessionsQueued:   reg.Gauge("sessions_queued"),
		sessionsRejected: reg.Counter("sessions_rejected"),
		readsPosted:      reg.Counter("reads_posted"),
		readsInflight:    reg.Gauge("reads_inflight"),
		modeSwitches:     reg.Counter("mode_switches"),
		creditLatency:    reg.Histogram("credit_latency", telemetry.DurationBuckets()...),
		storeLatency:     reg.Histogram("store_latency", telemetry.DurationBuckets()...),
		reassembly:       reg.Histogram("reassembly_occupancy", reassemblyBuckets()...),
		creditBatchSize:  reg.Histogram("credit_batch_size", creditBatchBuckets()...),
	}
	for r := grantInitial; r <= grantOnDemand; r++ {
		t.grants[r] = reg.Counter("grants_" + r.String())
	}
	k.tel = t
}

// Telemetry returns the attached registry (nil when detached).
func (k *Sink) Telemetry() *telemetry.Registry { return k.tel.reg }

// sessionCounters resolves the per-session byte/block counters lazily
// (sessions are created while telemetry may be attached or not).
func (t *sinkTelemetry) sessionCounters(id uint32) (bytes, blocks *telemetry.Counter) {
	sess := t.reg.Child(fmt.Sprintf("sess%d", id))
	return sess.Counter("bytes"), sess.Counter("blocks")
}

// sessionSchedWait resolves the per-session scheduler-wait counter:
// time the tenant sat with zero outstanding credits waiting for the
// DRR scheduler to feed it. Named stall_sched_wait_ns so
// spans.TopStall's recursive scan attributes it like any other stall.
func (t *sinkTelemetry) sessionSchedWait(id uint32) *telemetry.Counter {
	return t.reg.Child(fmt.Sprintf("sess%d", id)).Counter("stall_sched_wait_ns")
}

// IOMetrics instruments a storage engine feeding the protocol
// (internal/storage or any custom BlockSource/BlockSink): jobs in
// flight at the device, time each job waited queued before a worker
// picked it up, and time the device operation itself took. Queue wait
// growing while device time stays flat means the pipeline is deeper
// than the device can absorb; the reverse means the device is the
// bottleneck and more depth would overlap its latency.
type IOMetrics struct {
	InFlight   *telemetry.Gauge
	QueueWait  *telemetry.Histogram
	DeviceTime *telemetry.Histogram
}

// NewIOMetrics resolves engine metric handles under reg (conventionally
// a Child registry named "srcio" or "sinkio").
func NewIOMetrics(reg *telemetry.Registry) *IOMetrics {
	return &IOMetrics{
		InFlight:   reg.Gauge("io_inflight"),
		QueueWait:  reg.Histogram("io_queue_wait", telemetry.DurationBuckets()...),
		DeviceTime: reg.Histogram("io_device_time", telemetry.DurationBuckets()...),
	}
}
