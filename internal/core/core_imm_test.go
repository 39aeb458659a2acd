package core

import (
	"bytes"
	"testing"

	"rftp/internal/fabric/chanfabric"
	"rftp/internal/hostmodel"
)

func TestSimImmNotifyTransferCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 1 << 20
	cfg.IODepth = 16
	cfg.NotifyViaImm = true
	p := newSimPipe(t, lanLink(), cfg)
	total := int64(256 << 20)
	srcRes, sinkRes := p.runTransfer(t, total)
	if srcRes.Err != nil || sinkRes.Err != nil {
		t.Fatalf("errors: %v %v", srcRes.Err, sinkRes.Err)
	}
	if srcRes.Bytes != total || sinkRes.Bytes != total {
		t.Fatalf("bytes: %d %d", srcRes.Bytes, sinkRes.Bytes)
	}
}

func TestSimImmNotifySavesControlMessages(t *testing.T) {
	run := func(imm bool) (int64, int64) {
		cfg := DefaultConfig()
		cfg.BlockSize = 1 << 20
		cfg.IODepth = 16
		cfg.NotifyViaImm = imm
		p := newSimPipe(t, lanLink(), cfg)
		p.runTransfer(t, 128<<20)
		return p.source.Stats().CtrlMsgs, p.source.Stats().Blocks
	}
	ctrlMsgs, blocks := run(false)
	immMsgs, immBlocks := run(true)
	if blocks != immBlocks {
		t.Fatalf("block counts differ: %d vs %d", blocks, immBlocks)
	}
	// Immediate mode removes one control message per block.
	if ctrlMsgs-immMsgs < blocks {
		t.Fatalf("imm mode saved only %d messages over %d blocks", ctrlMsgs-immMsgs, blocks)
	}
}

func TestSimImmNotifyWANSaturates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 4 << 20
	cfg.IODepth = 64
	cfg.SinkBlocks = 128
	cfg.NotifyViaImm = true
	p := newSimPipe(t, wanLink(), cfg)
	p.runTransfer(t, 2<<30)
	bw := p.source.Stats().BandwidthGbps()
	if bw < 8 || bw > 10 {
		t.Fatalf("imm-mode WAN bandwidth = %.1f Gbps, want 8-10", bw)
	}
}

func TestChanImmNotifyIntegrity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 64 << 10
	cfg.Channels = 4
	cfg.IODepth = 16
	cfg.NotifyViaImm = true
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)
	data := randBytes(2<<20+4321, 11)
	got := p.transferBytes(t, data)
	if !bytes.Equal(got, data) {
		t.Fatalf("imm-mode stream corrupted: %d vs %d bytes", len(got), len(data))
	}
}

func TestSimImmNotifyMultiSession(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 1 << 20
	cfg.IODepth = 32
	cfg.NotifyViaImm = true
	p := newSimPipe(t, lanLink(), cfg)
	got := map[uint32]TransferResult{}
	p.source.Start(func(err error) {
		if err != nil {
			t.Errorf("nego: %v", err)
			return
		}
		for i := 0; i < 3; i++ {
			src := &hostmodel.ModelSource{Total: 64 << 20, Loader: p.loader, NsPerByte: 0.16}
			p.source.Transfer(src, 64<<20, func(r TransferResult) { got[r.Session] = r })
		}
	})
	p.sched.RunAll()
	if len(got) != 3 {
		t.Fatalf("finished %d sessions, want 3", len(got))
	}
	for id, r := range got {
		if r.Err != nil || r.Bytes != 64<<20 {
			t.Fatalf("session %d: %+v", id, r)
		}
	}
}
