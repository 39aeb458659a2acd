package core

import (
	"testing"

	"rftp/internal/wire"
)

// These tests drive a sink's control handler by hand through the two
// states that used to wedge TestChanHybridModeSwitchRace one run in
// four: push and pull sessions sharing one sink pool.

// mixedRig negotiates an 8-block hybrid sink on a sim pipe whose
// scheduler never runs (so nothing completes behind the test's back),
// opens one push session, and lets the test open further ones.
func mixedRig(t *testing.T) (k *Sink, push *sinkSession, open func(pull bool) *sinkSession) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BlockSize = 64 << 10
	cfg.IODepth = 4
	cfg.SinkBlocks = 8
	cfg.TransferMode = ModeHybrid
	p := newSimPipe(t, lanLink(), cfg)
	k = p.sink
	k.OnError = func(err error) { t.Errorf("sink failed: %v", err) }
	k.handleCtrl(&wire.Control{Type: wire.MsgBlockSizeReq, AssocData: uint64(cfg.BlockSize)})
	open = func(pull bool) *sinkSession {
		var flags uint8
		if pull {
			flags = wire.FlagModePull
		}
		k.handleCtrl(&wire.Control{Type: wire.MsgSessionReq, Flags: flags, Seq: 1})
		return k.sessions[k.nextID]
	}
	return k, open(false), open
}

// starve plays a source that keeps running dry: explicit requests until
// the sink has nothing more to give.
func starve(k *Sink, sess *sinkSession) {
	for i := 0; i < 2*k.cfg.SinkBlocks; i++ {
		k.handleCtrl(&wire.Control{Type: wire.MsgMRInfoRequest, Session: sess.info.ID})
	}
}

// With a pull session live, credits must never take the last free
// block: a credit waits on a source block, an advertisement waits on a
// sink block, and with both pools spoken for neither side could move.
func TestSinkKeepsAFetchBlockWhilePullSessionsLive(t *testing.T) {
	k, push, open := mixedRig(t)
	pull := open(true)
	starve(k, push)
	if free := len(k.pool.free); free != 1 {
		t.Fatalf("free blocks = %d with a pull session live, want exactly the fetch reserve (1)", free)
	}
	k.handleCtrl(&wire.Control{Type: wire.MsgBlockAdvert, Session: pull.info.ID, Seq: 0,
		Addr: 0x1000, RKey: 7, Length: 1024})
	if k.readsInflight != 1 || len(pull.fetchQ) != 0 {
		t.Fatalf("advert not fetched from the reserve: readsInflight=%d fetchQ=%d", k.readsInflight, len(pull.fetchQ))
	}
}

// A fetch that found the pool granted away must be retried when a
// finishing session's credits are reclaimed — no store completion will
// ever come to do it.
func TestSinkReclaimPumpsQueuedFetches(t *testing.T) {
	k, push, open := mixedRig(t)
	starve(k, push) // alone, so the whole pool is its to take
	if free := len(k.pool.free); free != 0 {
		t.Fatalf("free blocks = %d, want the pool fully granted", free)
	}
	pull := open(true)
	k.handleCtrl(&wire.Control{Type: wire.MsgBlockAdvert, Session: pull.info.ID, Seq: 0,
		Addr: 0x1000, RKey: 7, Length: 1024})
	if k.readsInflight != 0 || len(pull.fetchQ) != 1 {
		t.Fatalf("advert should be parked on a dry pool: readsInflight=%d fetchQ=%d", k.readsInflight, len(pull.fetchQ))
	}
	// The push session aborts having written nothing: reclaim is safe
	// at once and frees all eight blocks.
	k.handleCtrl(&wire.Control{Type: wire.MsgAbort, Session: push.info.ID})
	if k.readsInflight != 1 || len(pull.fetchQ) != 0 {
		t.Fatalf("reclaim did not pump the parked fetch: readsInflight=%d fetchQ=%d", k.readsInflight, len(pull.fetchQ))
	}
}
