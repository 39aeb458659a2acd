package core

import (
	"testing"

	"rftp/internal/fabric/chanfabric"
	"rftp/internal/fabric/simfabric"
	"rftp/internal/hostmodel"
	"rftp/internal/sim"
	"rftp/internal/verbs"
)

// TestEndpointWiring checks the one place a connection is wired, over
// both in-process fabrics: with equal channel counts ConnectTo pairs
// control with control and data channel i with data channel i, in that
// order, numbering them 0 and i+1 as Bind does; with unequal counts it
// returns an error and connects nothing. An endpoint refuses any loop
// count but one.
func TestEndpointWiring(t *testing.T) {
	type rig struct {
		devA, devB verbs.Device
		loop       verbs.Loop
		connect    func(a, b verbs.QP) error
	}
	fabrics := map[string]func(t *testing.T) rig{
		"chanfabric": func(t *testing.T) rig {
			fab := chanfabric.New()
			a, b := fab.NewDevice("a"), fab.NewDevice("b")
			fab.Connect(a, b, chanfabric.Shaping{})
			loop := verbs.NewWallLoop("wiring")
			t.Cleanup(loop.Stop)
			return rig{a, b, loop, fab.ConnectQPs}
		},
		"simfabric": func(t *testing.T) rig {
			sched := sim.New(1)
			fab := simfabric.New(sched)
			host := hostmodel.NewHost(sched, "h", 4, hostmodel.DefaultParams())
			a := fab.NewDevice("a", host, simfabric.DefaultNICProfile())
			b := fab.NewDevice("b", host, simfabric.DefaultNICProfile())
			fab.Connect(a, b, lanLink())
			return rig{a, b, host.NewThread("wiring"), fab.ConnectQPs}
		},
	}
	cases := []struct {
		name         string
		chanA, chanB int
		wantErr      bool
	}{
		{"one channel", 1, 1, false},
		{"four channels", 4, 4, false},
		{"fewer on the peer", 3, 2, true},
		{"more on the peer", 1, 2, true},
	}
	for fabName, build := range fabrics {
		t.Run(fabName+"/one loop only", func(t *testing.T) {
			r := build(t)
			for _, loops := range [][]verbs.Loop{nil, {r.loop, r.loop}} {
				if ep, err := NewServiceEndpoint(r.devA, loops, 1, 2, 1); err == nil {
					ep.Close()
					t.Fatalf("NewServiceEndpoint with %d loops succeeded, want an error", len(loops))
				}
			}
		})
		for _, tc := range cases {
			t.Run(fabName+"/"+tc.name, func(t *testing.T) {
				r := build(t)
				epA, err := NewEndpoint(r.devA, r.loop, tc.chanA, 2)
				if err != nil {
					t.Fatal(err)
				}
				epB, err := NewEndpoint(r.devB, r.loop, tc.chanB, 2)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(epA.Close)
				t.Cleanup(epB.Close)

				var pairs [][2]verbs.QP
				err = epA.ConnectTo(epB, func(a, b verbs.QP) error {
					pairs = append(pairs, [2]verbs.QP{a, b})
					return r.connect(a, b)
				})
				if tc.wantErr {
					if err == nil || len(pairs) != 0 {
						t.Fatalf("ConnectTo(%d channels -> %d) = %v after %d connects, want an error and none",
							tc.chanA, tc.chanB, err, len(pairs))
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				want := [][2]verbs.QP{{epA.Ctrl, epB.Ctrl}}
				for i := range epA.Data {
					want = append(want, [2]verbs.QP{epA.Data[i], epB.Data[i]})
				}
				if len(pairs) != len(want) {
					t.Fatalf("%d pairs connected, want %d", len(pairs), len(want))
				}
				for ch, p := range pairs {
					if p != want[ch] {
						t.Errorf("channel %d paired QPs %v and %v, want %v and %v", ch, p[0].ID(), p[1].ID(), want[ch][0].ID(), want[ch][1].ID())
					}
				}
				err = epA.Bind(func(q verbs.QP, ch uint32) error {
					if q != want[ch][0] {
						t.Errorf("Bind gave channel %d QP %v, want %v", ch, q.ID(), want[ch][0].ID())
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
