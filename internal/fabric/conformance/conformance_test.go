package conformance

import (
	"testing"
	"time"

	"rftp/internal/fabric/chanfabric"
	"rftp/internal/fabric/netfabric"
	"rftp/internal/fabric/simfabric"
	"rftp/internal/hostmodel"
	"rftp/internal/sim"
	"rftp/internal/verbs"
)

func simFactory(t *testing.T) *Pair {
	sched := sim.New(1)
	fab := simfabric.New(sched)
	ha := hostmodel.NewHost(sched, "a", 8, hostmodel.DefaultParams())
	hb := hostmodel.NewHost(sched, "b", 8, hostmodel.DefaultParams())
	da := fab.NewDevice("sim-a", ha, simfabric.DefaultNICProfile())
	db := fab.NewDevice("sim-b", hb, simfabric.DefaultNICProfile())
	fab.Connect(da, db, simfabric.LinkConfig{RateBps: 40e9, PropDelay: 10 * time.Microsecond, MTU: 9000, HeaderBytes: 58})
	return &Pair{
		A: da, B: db,
		LoopA: ha.NewThread("la"), LoopB: hb.NewThread("lb"),
		ConnectQPs: func(a, b verbs.QP) error { return fab.ConnectQPs(a, b) },
		Settle: func(cond func() bool) bool {
			for i := 0; i < 100; i++ {
				if cond() {
					return true
				}
				if sched.Pending() == 0 {
					// Nothing left to simulate; give RNR timers a chance
					// by advancing a little virtual time anyway.
					sched.Run(sched.Now() + time.Millisecond)
				} else {
					sched.RunAll()
				}
			}
			return cond()
		},
		SupportsModel: true,
	}
}

func chanFactory(t *testing.T) *Pair {
	fab := chanfabric.New()
	da := fab.NewDevice("chan-a")
	db := fab.NewDevice("chan-b")
	fab.Connect(da, db, chanfabric.Shaping{})
	la := verbs.NewWallLoop("la")
	lb := verbs.NewWallLoop("lb")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	return &Pair{
		A: da, B: db,
		LoopA: la, LoopB: lb,
		ConnectQPs: func(a, b verbs.QP) error { return fab.ConnectQPs(a, b) },
		Settle:     SettleRealtime(10 * time.Second),
	}
}

func netFactory(t *testing.T) *Pair {
	ln, err := netfabric.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	type res struct {
		d   *netfabric.Device
		err error
	}
	ch := make(chan res, 1)
	go func() {
		d, err := ln.Accept()
		ch <- res{d, err}
	}()
	client, err := netfabric.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { client.Close(); r.d.Close() })
	la := verbs.NewWallLoop("la")
	lb := verbs.NewWallLoop("lb")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	nextCh := uint32(0)
	settle := SettleRealtime(10 * time.Second)
	return &Pair{
		A: client, B: r.d,
		LoopA: la, LoopB: lb,
		ConnectQPs: func(a, b verbs.QP) error {
			nextCh++
			if err := client.BindQP(a, nextCh); err != nil {
				return err
			}
			return r.d.BindQP(b, nextCh)
		},
		Settle: func(cond func() bool) bool {
			ok := settle(cond)
			// The battery inspects registered regions directly after
			// one-sided ops complete; Sync orders the devices' in-place
			// placements before those reads (see Device.Sync).
			client.Sync()
			r.d.Sync()
			return ok
		},
	}
}

func TestSimFabricConformance(t *testing.T)  { Run(t, simFactory) }
func TestChanFabricConformance(t *testing.T) { Run(t, chanFactory) }
func TestNetFabricConformance(t *testing.T)  { Run(t, netFactory) }
