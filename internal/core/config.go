// Package core implements the paper's data transfer protocol: the RDMA
// middleware's flow control, connection management, and task
// synchronization layer that RFTP is built on.
//
// Design (Section IV of the paper):
//
//   - One dedicated queue pair carries control messages via SEND/RECV;
//     one or more data channel queue pairs carry bulk payload via
//     one-sided RDMA WRITE.
//   - Buffer blocks move through finite state machines at both ends
//     (source: free → loading → loaded → sending → waiting → free;
//     sink: free → waiting → data-ready → free).
//   - The sink proactively pushes memory-region credits to the source
//     ("active feedback"), granting up to two per consumed block — an
//     exponential ramp that fills the pipe without the 1-RTT credit
//     fetch of request-based designs.
//   - Many blocks stay in flight (high I/O depth) and parallel channels
//     are reassembled at the sink by (session id, sequence number).
//
// The package is written purely against the verbs interface and a Loop
// executor, so the same protocol code runs over the simulated fabric
// (virtual time, modeled payload), the in-process channel fabric, and
// the TCP socket fabric (real bytes).
package core

import (
	"errors"
	"fmt"
	"time"

	"rftp/internal/wire"
)

// CreditPolicy selects how the sink hands out memory-region credits.
type CreditPolicy int

const (
	// CreditProactive is the paper's active-feedback design: the sink
	// pushes credits without being asked, up to GrantPerConsume per
	// consumed block (exponential ramp, like TCP slow start).
	CreditProactive CreditPolicy = iota
	// CreditOnDemand models the prior design the paper criticizes
	// (RXIO): the source must explicitly request credits and stalls a
	// full RTT waiting for each batch.
	CreditOnDemand
)

func (p CreditPolicy) String() string {
	switch p {
	case CreditProactive:
		return "proactive"
	case CreditOnDemand:
		return "on-demand"
	default:
		return fmt.Sprintf("CreditPolicy(%d)", int(p))
	}
}

// TransferMode selects the data path direction of a transfer.
type TransferMode int

const (
	// ModePush is the paper's design: the sink grants credits and the
	// source issues RDMA WRITEs into them.
	ModePush TransferMode = iota
	// ModePull inverts the data path (the RFP remote-fetching paradigm):
	// the source advertises loaded blocks and the sink fetches them with
	// one-sided RDMA READs, shifting the per-block data-path work to the
	// receiver.
	ModePull
	// ModeHybrid lets the source switch each session between push and
	// pull at run time, driven by its CPU-load probe and the per-mode
	// goodput estimators.
	ModeHybrid
)

func (m TransferMode) String() string {
	switch m {
	case ModePush:
		return "push"
	case ModePull:
		return "pull"
	case ModeHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("TransferMode(%d)", int(m))
	}
}

// ParseTransferMode parses the -mode flag values.
func ParseTransferMode(s string) (TransferMode, error) {
	switch s {
	case "push":
		return ModePush, nil
	case "pull":
		return ModePull, nil
	case "hybrid":
		return ModeHybrid, nil
	default:
		return ModePush, fmt.Errorf("core: unknown transfer mode %q (want push|pull|hybrid)", s)
	}
}

// Config parameterizes both ends of a transfer. The source's values are
// proposed during negotiation; the sink accepts or rejects them.
type Config struct {
	// BlockSize is the buffer block size in bytes, including the
	// wire.BlockHeaderSize header. The paper sweeps 4 KiB – 64 MiB.
	BlockSize int
	// Channels is the number of parallel data queue pairs.
	Channels int
	// IODepth is the source block pool size: the maximum number of
	// blocks in flight. High depth is the key to saturating the
	// asynchronous interface (Section III).
	IODepth int
	// SinkBlocks is the sink block pool size (the credit supply).
	// Defaults to 2*IODepth so reassembly holes never starve credits.
	SinkBlocks int
	// LoadDepth bounds in-flight Loads per session when the session's
	// BlockSource is offset-addressed (BlockSourceAt): seq and offset
	// are assigned at issue time, so loads overlap and may complete out
	// of order, keeping the storage stage as deep as the network stages.
	// Plain BlockSources always run one load at a time regardless.
	// Defaults to IODepth; values above IODepth are clamped to it (the
	// pool cannot hold more).
	LoadDepth int
	// StoreDepth bounds concurrent Stores per session at the sink, on
	// both the in-order delivery path and the OffsetSink fast path.
	// Defaults to SinkBlocks (effectively unbounded: every arrived block
	// may be storing at once).
	StoreDepth int
	// CreditPolicy selects proactive (paper) or on-demand (baseline)
	// credit flow.
	CreditPolicy CreditPolicy
	// GrantPerConsume caps credits granted back per consumed block under
	// the proactive policy (paper: 2 → exponential ramp; 1 → linear).
	GrantPerConsume int
	// InitialCredits is the number of credits pushed right after session
	// setup under the proactive policy.
	InitialCredits int
	// OnDemandBatch is the number of credits returned per explicit
	// request under the on-demand policy.
	OnDemandBatch int
	// NotifyViaImm replaces the paper's explicit block-transfer
	// completion notification (a SEND on the control QP) with RDMA
	// WRITE WITH IMMEDIATE on the data channels: the immediate value
	// names the consumed region and the sink learns of the block from
	// the data QP completion itself. One fewer message per block, at
	// the cost of consuming data-QP receives. Negotiated via
	// wire.FlagImmNotify; the sink adopts the source's choice.
	NotifyViaImm bool
	// NoGrantOnFree disables the re-advertise-on-free extension and
	// restricts the proactive policy to the paper's literal rule
	// (grants only at block-completion notifications and explicit
	// requests). Used by the credit-ramp ablation.
	NoGrantOnFree bool
	// CreditBatch is the coalescing flush threshold: proactive grants
	// (on-consume and on-free) accumulate in a pending batch that is
	// sent as one MR_INFO_RESPONSE once it reaches this many credits.
	// The batch also flushes early when the source's outstanding-credit
	// level falls below the low watermark or when the flush timer
	// fires, so the ramp and starvation behavior match the unbatched
	// protocol in aggregate. 1 disables coalescing (every grant event
	// sends immediately, the pre-coalescing behavior); 0 picks the
	// default (16); values above wire.MaxCreditsPerMsg are clamped.
	CreditBatch int
	// CreditWindow overrides the sink's target for credits outstanding
	// at the source. 0 sizes the window adaptively from measured
	// delivery rate × credit round-trip (a BDP estimate) clamped to
	// [max(4, SinkBlocks/8), SinkBlocks]; values above SinkBlocks are
	// clamped (the pool cannot back more credits).
	CreditWindow int
	// MaxSessions caps concurrently active sessions at the sink
	// (admission control). 0 = unlimited. A SESSION_REQ arriving at the
	// cap is queued (up to SessionQueue deep) or answered with a
	// SESSION_BUSY reply (MsgSessionResp carrying wire.FlagBusy).
	MaxSessions int
	// SessionQueue is how many SESSION_REQs may wait for a session slot
	// when MaxSessions is reached; requests beyond it are rejected busy.
	// 0 = reject immediately at the cap.
	SessionQueue int
	// TenantWeights assigns deficit-round-robin weights to the sink's
	// per-session credit scheduler. Session id i maps to
	// TenantWeights[(i-1) % len]; an empty slice means equal weight 1.
	// Non-positive entries are normalized to 1.
	TenantWeights []int
	// TransferMode selects push (paper), pull (RDMA-READ fetching), or
	// hybrid (adaptive per-session switching). On the sink it is the
	// policy boundary: a push-only sink refuses pull sessions and
	// mode-switch requests.
	TransferMode TransferMode
	// LoadProbe, on the source under ModeHybrid, reports the source
	// host's CPU load in [0, 1]. The hybrid controller switches sessions
	// to pull when the probe is high (the data-path work moves to the
	// sink) and back to push when it clears. nil leaves the controller
	// with only its per-mode goodput estimators.
	LoadProbe func() float64
	// ModelPayload marks simulation-scale transfers: payload is length
	// modeled, only headers travel as real bytes. Requires a fabric
	// supporting modeled memory regions.
	ModelPayload bool
	// MaxRetries bounds per-block resend attempts after a failed WRITE.
	MaxRetries int
	// NegotiateTimeout bounds each negotiation step (0 = no timeout).
	NegotiateTimeout time.Duration
}

// DefaultConfig returns the configuration used by the paper's headline
// runs: 4 MiB blocks, 1 channel, depth 16.
func DefaultConfig() Config {
	return Config{
		BlockSize:       4 << 20,
		Channels:        1,
		IODepth:         16,
		CreditPolicy:    CreditProactive,
		GrantPerConsume: 2,
		InitialCredits:  2,
		OnDemandBatch:   16,
		MaxRetries:      5,
	}
}

// Normalize fills defaults and validates.
func (c Config) Normalize() (Config, error) {
	if c.BlockSize == 0 {
		c.BlockSize = 4 << 20
	}
	if c.BlockSize < wire.BlockHeaderSize+1 {
		return c, fmt.Errorf("core: block size %d too small (min %d)", c.BlockSize, wire.BlockHeaderSize+1)
	}
	if c.Channels <= 0 {
		c.Channels = 1
	}
	if c.IODepth <= 0 {
		c.IODepth = 16
	}
	if c.SinkBlocks <= 0 {
		c.SinkBlocks = 2 * c.IODepth
	}
	if c.LoadDepth <= 0 || c.LoadDepth > c.IODepth {
		c.LoadDepth = c.IODepth
	}
	if c.StoreDepth <= 0 || c.StoreDepth > c.SinkBlocks {
		c.StoreDepth = c.SinkBlocks
	}
	if c.GrantPerConsume <= 0 {
		c.GrantPerConsume = 2
	}
	if c.InitialCredits <= 0 {
		c.InitialCredits = 2
	}
	if c.InitialCredits > c.SinkBlocks {
		c.InitialCredits = c.SinkBlocks
	}
	if c.OnDemandBatch <= 0 {
		c.OnDemandBatch = 16
	}
	if c.CreditBatch <= 0 {
		c.CreditBatch = 16
	}
	if c.CreditBatch > wire.MaxCreditsPerMsg {
		c.CreditBatch = wire.MaxCreditsPerMsg
	}
	if c.CreditWindow < 0 {
		c.CreditWindow = 0
	}
	if c.CreditWindow > c.SinkBlocks {
		c.CreditWindow = c.SinkBlocks
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 5
	}
	if c.MaxSessions < 0 {
		c.MaxSessions = 0
	}
	if c.SessionQueue < 0 {
		c.SessionQueue = 0
	}
	// c is a copy but its slice shares the caller's backing array:
	// normalize a private one.
	c.TenantWeights = append([]int(nil), c.TenantWeights...)
	for i, w := range c.TenantWeights {
		if w <= 0 {
			c.TenantWeights[i] = 1
		}
	}
	return c, nil
}

// PayloadCapacity is the user bytes one block can carry.
func (c Config) PayloadCapacity() int { return c.BlockSize - wire.BlockHeaderSize }

// Errors surfaced by the protocol.
var (
	ErrNegotiationRejected = errors.New("core: peer rejected negotiation")
	ErrAborted             = errors.New("core: transfer aborted by peer")
	ErrClosed              = errors.New("core: endpoint closed")
	ErrTooManyRetries      = errors.New("core: block retry budget exhausted")
	ErrProtocol            = errors.New("core: protocol violation")
	ErrBusy                = errors.New("core: negotiation already in progress")
	ErrSessionBusy         = errors.New("core: sink at session capacity")
)

// Stats summarizes one side of a transfer.
type Stats struct {
	// Bytes is user payload bytes moved (headers excluded).
	Bytes int64
	// Blocks is the number of payload blocks moved.
	Blocks int64
	// CtrlMsgs counts control messages sent by this side.
	CtrlMsgs int64
	// CreditsGranted counts credits issued (sink) or received (source).
	CreditsGranted int64
	// GrantMsgs counts MR_INFO_RESPONSE messages sent (sink) or
	// received (source); CreditsGranted/GrantMsgs is the mean
	// grant-batch size the coalescer achieved.
	GrantMsgs int64
	// CreditStalls counts times the source ran dry and had to issue an
	// explicit MR_INFO_REQUEST.
	CreditStalls int64
	// CreditsReclaimed counts granted credits the sink took back without
	// a block landing in them (session teardown reclaim): every granted
	// credit is either consumed by an arrival or reclaimed, so
	// CreditsGranted = Blocks-arrived + CreditsReclaimed + outstanding.
	CreditsReclaimed int64
	// SessionsRejected counts SESSION_REQs turned away busy by admission
	// control (sink side).
	SessionsRejected int64
	// Retries counts block resends after failed WRITEs.
	Retries int64
	// Adverts counts pull-mode block advertisements sent (source) or
	// received (sink).
	Adverts int64
	// ReadsDone counts pull-mode READ completions: READ_DONE
	// notifications received (source) or RDMA READs completed (sink).
	// A settled ledger has Adverts == ReadsDone + reclaimed-on-abort.
	ReadsDone int64
	// ModeSwitches counts completed push<->pull mode-switch handshakes.
	ModeSwitches int64
	// Start and End are loop timestamps of first and last activity.
	Start, End time.Duration
}

// Elapsed is the active transfer duration.
func (s Stats) Elapsed() time.Duration { return s.End - s.Start }

// BandwidthGbps is user goodput in gigabits per second.
func (s Stats) BandwidthGbps() float64 {
	e := s.Elapsed().Seconds()
	if e <= 0 {
		return 0
	}
	return float64(s.Bytes) * 8 / e / 1e9
}
