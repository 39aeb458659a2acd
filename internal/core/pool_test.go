package core

import (
	"testing"
	"testing/quick"

	"rftp/internal/fabric/chanfabric"
	"rftp/internal/verbs"
	"rftp/internal/wire"
)

func newTestPool(t *testing.T, n, size int) *pool {
	t.Helper()
	dev := chanfabric.New().NewDevice("t")
	p, err := newPool(dev, dev.AllocPD(), n, size, false, verbs.AccessLocalWrite, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolGetPut(t *testing.T) {
	p := newTestPool(t, 4, 4096)
	var got []*block
	for i := 0; i < 4; i++ {
		b := p.get()
		if b == nil {
			t.Fatalf("pool dry at %d", i)
		}
		got = append(got, b)
	}
	if p.get() != nil {
		t.Fatal("pool overcommitted")
	}
	for _, b := range got {
		p.put(b)
	}
	if p.get() == nil {
		t.Fatal("pool did not refill")
	}
}

func TestPoolPutResetsBlock(t *testing.T) {
	p := newTestPool(t, 1, 4096)
	b := p.get()
	b.setState(BlockLoading)
	b.session, b.seq, b.offset, b.payloadLen, b.last = 9, 9, 9, 9, true
	b.credit = wire.Credit{Addr: 1, RKey: 2, Len: 3}
	b.setState(BlockFree)
	p.put(b)
	b2 := p.get()
	if b2.session != 0 || b2.seq != 0 || b2.offset != 0 || b2.payloadLen != 0 || b2.last || b2.credit != (wire.Credit{}) {
		t.Fatalf("block not reset: %+v", b2)
	}
}

func TestPoolPutNonFreePanics(t *testing.T) {
	p := newTestPool(t, 1, 4096)
	b := p.get()
	b.setState(BlockLoading)
	defer func() {
		if recover() == nil {
			t.Fatal("putting loading block did not panic")
		}
	}()
	p.put(b)
}

func TestPoolLookups(t *testing.T) {
	p := newTestPool(t, 3, 4096)
	if p.byIdx(-1) != nil || p.byIdx(3) != nil {
		t.Fatal("out-of-range byIdx returned a block")
	}
	b := p.byIdx(1)
	if b == nil || b.idx != 1 {
		t.Fatal("byIdx(1) wrong")
	}
	if got := p.byRKey(b.mr.RKey); got != b {
		t.Fatal("byRKey mismatch")
	}
	if p.byRKey(0xFFFFFFFF) != nil {
		t.Fatal("byRKey invented a block")
	}
}

func TestFSMLegalCycle(t *testing.T) {
	b := &block{}
	// Source cycle.
	for _, s := range []BlockState{BlockLoading, BlockLoaded, BlockSending, BlockWaiting, BlockFree} {
		b.setState(s)
	}
	// Sink cycle.
	for _, s := range []BlockState{BlockWaiting, BlockDataReady, BlockStoring, BlockFree} {
		b.setState(s)
	}
	// Retry path: sending -> loaded (repost), waiting -> loaded (resend).
	b.setState(BlockLoading)
	b.setState(BlockLoaded)
	b.setState(BlockSending)
	b.setState(BlockLoaded)
	b.setState(BlockSending)
	b.setState(BlockWaiting)
	b.setState(BlockLoaded)
	// Abort shortcut: a queued (loaded-but-unsent) block recycled when
	// its session is torn down mid-transfer.
	b.setState(BlockFree)
}

func TestFSMIllegalTransitionsPanic(t *testing.T) {
	bad := []struct{ from, to BlockState }{
		{BlockFree, BlockLoaded},
		{BlockFree, BlockDataReady},
		{BlockLoaded, BlockWaiting},
		{BlockStoring, BlockDataReady},
		{BlockWaiting, BlockSending},
	}
	for _, c := range bad {
		b := &block{state: c.from} //lint:allow fsmtransition test must construct blocks at arbitrary FSM states
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("transition %v -> %v did not panic", c.from, c.to)
				}
			}()
			b.setState(c.to)
		}()
	}
}

// Property: any path through validNext keeps the FSM consistent and any
// step outside it panics.
func TestFSMTransitionTableProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		b := &block{}
		for _, raw := range steps {
			to := BlockState(raw % 7)
			legal := false
			for _, n := range validNext[b.state] {
				if n == to {
					legal = true
					break
				}
			}
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				b.setState(to)
				return
			}()
			if legal == panicked {
				return false
			}
			if !legal {
				return true // state machine rejected; done with this case
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockStateStrings(t *testing.T) {
	names := map[BlockState]string{
		BlockFree: "free", BlockLoading: "loading", BlockLoaded: "loaded",
		BlockSending: "sending", BlockWaiting: "waiting",
		BlockDataReady: "data-ready", BlockStoring: "storing",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if BlockState(99).String() == "" {
		t.Error("unknown state has empty string")
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	c, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.BlockSize != 4<<20 || c.Channels != 1 || c.IODepth != 16 {
		t.Fatalf("defaults: %+v", c)
	}
	if c.SinkBlocks != 32 {
		t.Fatalf("SinkBlocks default = %d, want 2*IODepth", c.SinkBlocks)
	}
	if c.GrantPerConsume != 2 || c.InitialCredits != 2 {
		t.Fatalf("credit defaults: %+v", c)
	}
}

func TestConfigRejectsTinyBlocks(t *testing.T) {
	if _, err := (Config{BlockSize: wire.BlockHeaderSize}).Normalize(); err == nil {
		t.Fatal("header-only block size accepted")
	}
}

func TestConfigInitialCreditsCapped(t *testing.T) {
	c, _ := Config{IODepth: 4, SinkBlocks: 3, InitialCredits: 100}.Normalize()
	if c.InitialCredits != 3 {
		t.Fatalf("InitialCredits = %d, want capped to 3", c.InitialCredits)
	}
}

// Regression: Normalize has a value receiver but used to write the
// weight fix-ups through the slice it shares with the caller, so
// NewSink silently edited the -tenant-weight slice the caller holds.
func TestNormalizeLeavesCallerWeightsAlone(t *testing.T) {
	weights := []int{0, 2}
	cfg := DefaultConfig()
	cfg.TenantWeights = weights
	p := newSimPipe(t, lanLink(), cfg)
	if weights[0] != 0 || weights[1] != 2 {
		t.Fatalf("caller's weights rewritten to %v", weights)
	}
	if got := p.sink.cfg.TenantWeights; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("sink weights = %v, want [1 2]", got)
	}
}

func TestPayloadCapacity(t *testing.T) {
	c := Config{BlockSize: 1024}
	if c.PayloadCapacity() != 1024-wire.BlockHeaderSize {
		t.Fatalf("capacity = %d", c.PayloadCapacity())
	}
}

func TestCreditPolicyStrings(t *testing.T) {
	if CreditProactive.String() != "proactive" || CreditOnDemand.String() != "on-demand" {
		t.Fatal("policy strings wrong")
	}
	if CreditPolicy(9).String() == "" {
		t.Fatal("unknown policy empty")
	}
}

func TestStatsBandwidth(t *testing.T) {
	s := Stats{Bytes: 1 << 30, Start: 0, End: 1e9} // 1 GiB in 1s
	want := float64(1<<30) * 8 / 1e9
	if got := s.BandwidthGbps(); got < want-0.01 || got > want+0.01 {
		t.Fatalf("bandwidth = %v, want %v", got, want)
	}
	if (Stats{}).BandwidthGbps() != 0 {
		t.Fatal("zero-elapsed bandwidth not 0")
	}
}
