package core

import (
	"testing"
	"time"
)

// TestRateWindowGolden feeds one recorded (now, rtt) sequence to the
// estimator through both of its users and checks the window each
// reports against values captured from the two separate
// implementations this type replaced (Sink.targetWindow over
// noteWindowSample, Source.advertWindow over noteAdvertSample, at
// commit 19657c2). The sequence walks warm-up (whole pool), a
// BDP-limited steady state, a rate jump that EWMAs up into the pool
// clamp, a rate collapse onto the floor, and an RTT rise that only
// registers once the 64-sample minimum filter slides past the old
// minimum.
func TestRateWindowGolden(t *testing.T) {
	phases := []struct {
		n        int
		gap, rtt time.Duration
	}{
		{16, 100 * time.Microsecond, time.Millisecond},
		{32, 100 * time.Microsecond, time.Millisecond},
		{48, 5 * time.Microsecond, time.Millisecond},
		{40, 10 * time.Millisecond, time.Millisecond},
		{80, 100 * time.Microsecond, 4 * time.Millisecond},
	}
	// {samples fed, push sink's credit window, pull source's advertise window}
	golden := [][3]int{
		{8, 256, 128}, {16, 38, 28}, {24, 38, 28}, {32, 38, 28}, {40, 38, 28},
		{48, 38, 28}, {56, 38, 28}, {64, 58, 48}, {72, 90, 80}, {80, 140, 128},
		{88, 206, 128}, {96, 256, 128}, {104, 32, 16}, {112, 32, 16}, {120, 32, 16},
		{128, 32, 16}, {136, 32, 16}, {144, 32, 16}, {152, 32, 16}, {160, 32, 16},
		{168, 32, 16}, {176, 32, 16}, {184, 32, 16}, {192, 32, 16}, {200, 64, 54},
		{208, 76, 66}, {216, 86, 76},
	}
	sinkCfg, _ := Config{IODepth: 16, SinkBlocks: 256}.Normalize()
	k := &Sink{cfg: sinkCfg}
	srcCfg, _ := Config{IODepth: 128, LoadDepth: 8}.Normalize()
	s := &Source{cfg: srcCfg}

	var now time.Duration
	fed := 0
	for _, ph := range phases {
		for i := 0; i < ph.n; i++ {
			now += ph.gap
			k.win.sample(now, ph.rtt)
			s.advWin.sample(now, ph.rtt)
			fed++
			if fed%8 != 0 {
				continue
			}
			want := golden[fed/8-1]
			if got := k.targetWindow(); got != want[1] {
				t.Errorf("after %d samples: sink credit window = %d, want %d", fed, got, want[1])
			}
			if got := s.advertWindow(); got != want[2] {
				t.Errorf("after %d samples: source advertise window = %d, want %d", fed, got, want[2])
			}
		}
	}
	if fed/8 != len(golden) {
		t.Fatalf("fed %d samples, golden table covers %d", fed, 8*len(golden))
	}
}
