// Package simfabric implements the verbs interface over the
// discrete-event simulation kernel.
//
// It models the pieces of an RDMA fabric that shape the paper's results:
//
//   - wire serialization at the NIC egress port (rate, MTU framing
//     overhead, per-WR NIC latency),
//   - propagation delay (LAN microseconds to WAN 24.5 ms one way),
//   - RC timing over the shared queue-pair rules (verbs.RCQP): in-order
//     per-QP delivery, sender completions on ACK (half an RTT after
//     delivery), receiver-not-ready NAK/retry for SEND, bounded
//     outstanding RDMA READs at the responder (IRD),
//   - host CPU charging: posting WRs, reaping completions, interrupt
//     moderation — two-sided traffic charges both hosts, one-sided
//     traffic only the initiator.
//
// Payload is length-modeled (verbs.SendWR.ModelBytes); real bytes in
// SendWR.Data — protocol headers — are physically placed into the target
// memory region's shadow prefix so the protocol logic above runs
// unmodified.
package simfabric

import (
	"fmt"
	"time"

	"rftp/internal/hostmodel"
	"rftp/internal/sim"
	"rftp/internal/telemetry"
	"rftp/internal/verbs"
)

// LinkConfig describes a point-to-point link between two devices.
type LinkConfig struct {
	// RateBps is the line rate in bits per second.
	RateBps float64
	// PropDelay is the one-way propagation delay (RTT/2).
	PropDelay time.Duration
	// MTU is the maximum transmission unit in bytes; messages are framed
	// into ceil(len/MTU) packets each paying HeaderBytes of overhead.
	MTU int
	// HeaderBytes is per-packet framing overhead (Ethernet+IP+UDP+BTH
	// for RoCE ~ 58 B; IB LRH+BTH+ICRC ~ 30 B).
	HeaderBytes int
}

// NICProfile captures per-device costs that differ between RDMA
// architectures (the paper observes libibverbs overhead is lower on
// InfiniBand than RoCE).
type NICProfile struct {
	// TxPerWR is NIC processing latency added to each transmitted WR.
	TxPerWR time.Duration
	// RxPerWR is NIC processing latency added at the receiver.
	RxPerWR time.Duration
	// HostCostFactor scales the host-side verbs costs (PostWR,
	// Completion) for this device. 1.0 for InfiniBand; >1 for RoCE.
	HostCostFactor float64
	// RNRTimer is the delay before a SEND that found no posted receive
	// is retried.
	RNRTimer time.Duration
	// MaxOutstandingReads caps concurrent inbound READ responses the
	// device serves (responder resources); initiator depth is per-QP
	// (QPConfig.MaxRDAtomic).
	MaxOutstandingReads int
}

// DefaultNICProfile returns a generic 2012-era HCA profile.
func DefaultNICProfile() NICProfile {
	return NICProfile{
		TxPerWR:             600 * time.Nanosecond,
		RxPerWR:             600 * time.Nanosecond,
		HostCostFactor:      1.0,
		RNRTimer:            100 * time.Microsecond,
		MaxOutstandingReads: 16,
	}
}

// Backbone is a shared wide-area trunk: multiple device pairs
// connected via the same backbone serialize through its capacity in
// each direction (the ANI testbed's hosts shared a 100 Gbps ESnet
// path with 10 Gbps NICs each).
type Backbone struct {
	fwd, rev *port
}

// NewBackbone creates a full-duplex shared trunk of the given rate.
func (f *Fabric) NewBackbone(rateBps float64) *Backbone {
	if rateBps <= 0 {
		panic("simfabric: backbone rate must be positive")
	}
	return &Backbone{
		fwd: &port{sched: f.sched, rateBps: rateBps},
		rev: &port{sched: f.sched, rateBps: rateBps},
	}
}

// Bytes returns total bytes carried in each direction.
func (bb *Backbone) Bytes() (fwd, rev uint64) { return bb.fwd.txBytes, bb.rev.txBytes }

// Fabric owns all simulated devices and the QP namespace.
type Fabric struct {
	sched   *sim.Scheduler
	nextQP  verbs.QPID
	msgFree []*message // recycled in-flight messages (single sim goroutine)
}

// takeMessage returns a zeroed message from the fabric freelist.
func (f *Fabric) takeMessage() *message {
	if n := len(f.msgFree); n > 0 {
		m := f.msgFree[n-1]
		f.msgFree[n-1] = nil
		f.msgFree = f.msgFree[:n-1]
		return m
	}
	return &message{}
}

// putMessage recycles a message whose lifecycle has fully completed.
// Messages that ever armed an RNR retry timer are left to the GC: the
// timer closure may still hold a reference after delivery.
func (f *Fabric) putMessage(m *message) {
	if m.rnrArmed {
		return
	}
	*m = message{}
	f.msgFree = append(f.msgFree, m)
}

// New creates an empty fabric on the scheduler.
func New(sched *sim.Scheduler) *Fabric {
	return &Fabric{sched: sched}
}

// Scheduler returns the simulation scheduler.
func (f *Fabric) Scheduler() *sim.Scheduler { return f.sched }

// Device is a simulated HCA attached to a host.
type Device struct {
	fabric  *Fabric
	name    string
	host    *hostmodel.Host
	profile NICProfile
	space   *verbs.AddressSpace
	port    *port
	bbPort  *port // shared backbone direction (nil = dedicated path)
	peer    *Device
	link    LinkConfig
	nextPD  uint32

	// Stats.
	TxWRs   uint64
	TxBytes uint64
	RxWRs   uint64
	RxBytes uint64
	RNRNaks uint64
	inReads int // inbound READ responses in service
	rdQueue []func()

	// Telemetry, when set, mirrors the plain stats into per-opcode
	// registry counters. Nil costs nothing.
	Telemetry *telemetry.FabricMetrics
}

// NewDevice creates a device on host. Link it to a peer with Connect.
func (f *Fabric) NewDevice(name string, host *hostmodel.Host, profile NICProfile) *Device {
	if profile.HostCostFactor <= 0 {
		profile.HostCostFactor = 1
	}
	if profile.RNRTimer <= 0 {
		profile.RNRTimer = 100 * time.Microsecond
	}
	if profile.MaxOutstandingReads <= 0 {
		profile.MaxOutstandingReads = 16
	}
	return &Device{
		fabric:  f,
		name:    name,
		host:    host,
		profile: profile,
		space:   verbs.NewAddressSpace(),
	}
}

// ConnectVia joins two devices through a shared backbone trunk: each
// transmission serializes first at the sender's NIC port (its own link
// rate) and then through the backbone's directional capacity, which
// all pairs on the trunk share.
func (f *Fabric) ConnectVia(a, b *Device, link LinkConfig, bb *Backbone) {
	f.Connect(a, b, link)
	a.bbPort, b.bbPort = bb.fwd, bb.rev
}

// Connect joins two devices with a full-duplex point-to-point link.
func (f *Fabric) Connect(a, b *Device, link LinkConfig) {
	if link.RateBps <= 0 {
		panic("simfabric: link rate must be positive")
	}
	if link.MTU <= 0 {
		link.MTU = 9000
	}
	if link.HeaderBytes < 0 {
		link.HeaderBytes = 0
	}
	a.peer, b.peer = b, a
	a.link, b.link = link, link
	a.port = &port{sched: f.sched, rateBps: link.RateBps}
	b.port = &port{sched: f.sched, rateBps: link.RateBps}
}

// Host returns the host the device is attached to.
func (d *Device) Host() *hostmodel.Host { return d.host }

// Name implements verbs.Device.
func (d *Device) Name() string { return d.name }

// AllocPD implements verbs.Device.
func (d *Device) AllocPD() *verbs.PD {
	d.nextPD++
	return &verbs.PD{ID: d.nextPD, Device: d.name}
}

// CreateCQ implements verbs.Device.
func (d *Device) CreateCQ(loop verbs.Loop, depth int) verbs.CQ {
	return verbs.NewUpcallCQ(loop)
}

// RegisterMR implements verbs.Device.
func (d *Device) RegisterMR(pd *verbs.PD, buf []byte, access verbs.Access) (*verbs.MR, error) {
	return d.space.Register(pd, buf, access)
}

// RegisterModelMR implements verbs.Device.
func (d *Device) RegisterModelMR(pd *verbs.PD, length, shadow int, access verbs.Access) (*verbs.MR, error) {
	return d.space.RegisterModel(pd, length, shadow, access)
}

// Space exposes the device's address space (tests and tools).
func (d *Device) Space() *verbs.AddressSpace { return d.space }

// wireBytes returns on-the-wire length including per-packet framing.
func (d *Device) wireBytes(payload int) int {
	if payload <= 0 {
		payload = 1
	}
	pkts := (payload + d.link.MTU - 1) / d.link.MTU
	return payload + pkts*d.link.HeaderBytes
}

// port serializes transmissions onto the wire.
type port struct {
	sched     *sim.Scheduler
	rateBps   float64
	busyUntil time.Duration
	txBytes   uint64
}

// transmit schedules wire occupation for n bytes and returns the time the
// last bit leaves the port.
func (p *port) transmit(n int) time.Duration {
	return p.transmitAt(p.sched.Now(), n)
}

// transmitAt is transmit with an earliest-start constraint (used when a
// message must first finish serializing at an upstream port).
func (p *port) transmitAt(earliest time.Duration, n int) time.Duration {
	start := earliest
	if now := p.sched.Now(); start < now {
		start = now
	}
	if p.busyUntil > start {
		start = p.busyUntil
	}
	tx := time.Duration(float64(n) * 8 / p.rateBps * float64(time.Second))
	if tx <= 0 {
		tx = time.Nanosecond
	}
	p.busyUntil = start + tx
	p.txBytes += uint64(n)
	return p.busyUntil
}

// Utilization returns bytes transmitted so far (for link-level stats).
func (p *port) Bytes() uint64 { return p.txBytes }

func (d *Device) chargePost() time.Duration {
	return time.Duration(float64(d.host.Params.PostWR) * d.profile.HostCostFactor)
}

func (d *Device) chargeCompletion(loop verbs.Loop) time.Duration {
	base := time.Duration(float64(d.host.Params.Completion) * d.profile.HostCostFactor)
	if t, ok := loop.(*hostmodel.Thread); ok {
		base += t.ChargeInterrupt()
	}
	return base
}

var _ verbs.Device = (*Device)(nil)

func (d *Device) String() string {
	return fmt.Sprintf("simdev(%s on %s)", d.name, d.host.Name)
}
