package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rftp/internal/fabric/chanfabric"
	"rftp/internal/hostmodel"
	"rftp/internal/wire"
)

// memSource is a BlockSource over a byte slice that flags EOF on the
// load that reaches the last byte, so a dataset filling its last block
// exactly moves in ceil(len/capacity) blocks with no empty tail.
type memSource struct {
	data []byte
	off  int
}

func (s *memSource) Load(p []byte, capacity int, done func(int, bool, error)) {
	n := copy(p[:capacity], s.data[s.off:])
	s.off += n
	done(n, s.off == len(s.data), nil)
}

// smallFileRun is what runSmallFiles observed: each transfer's source
// result by index, each session's sink result by id, and both sides'
// statistics once everything finished.
type smallFileRun struct {
	src              []TransferResult
	sink             map[uint32]TransferResult
	srcStats, kStats Stats
}

// runSmallFiles opens one session per entry of sizes over one chanfabric
// connection, inFlight at a time in a closed loop (each completion
// issues the next transfer), and waits until both sides finished all of
// them.
func runSmallFiles(t *testing.T, cfg Config, sizes []int, inFlight int) smallFileRun {
	t.Helper()
	ncfg, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	p := newChanPipe(t, chanfabric.Shaping{}, cfg)
	run := smallFileRun{src: make([]TransferResult, len(sizes)), sink: make(map[uint32]TransferResult)}
	var mu sync.Mutex
	sinkDone := make(chan struct{}, len(sizes))
	p.sink.OnSessionDone = func(info SessionInfo, r TransferResult) {
		mu.Lock()
		run.sink[info.ID] = r
		mu.Unlock()
		sinkDone <- struct{}{}
	}
	payload := randBytes(ncfg.PayloadCapacity(), 71)
	srcDone := make(chan error, 1)
	next, left := 0, len(sizes)
	var issue func()
	issue = func() {
		i := next
		next++
		p.source.Transfer(&memSource{data: payload[:sizes[i]]}, int64(sizes[i]), func(r TransferResult) {
			run.src[i] = r
			if left--; left == 0 {
				srcDone <- nil
			}
			if next < len(sizes) {
				issue()
			}
		})
	}
	p.srcLoop.Post(0, func() {
		p.source.Start(func(err error) {
			if err != nil {
				srcDone <- err
				return
			}
			for next < inFlight && next < len(sizes) {
				issue()
			}
		})
	})
	timeout := time.After(60 * time.Second)
	select {
	case err := <-srcDone:
		if err != nil {
			t.Fatalf("negotiation: %v", err)
		}
	case <-timeout:
		t.Fatalf("source finished %d of %d sessions in time", len(sizes)-left, len(sizes))
	}
	for i := range sizes {
		select {
		case <-sinkDone:
		case <-timeout:
			t.Fatalf("sink finished %d of %d sessions in time", i, len(sizes))
		}
	}
	stats := make(chan Stats, 2)
	p.srcLoop.Post(0, func() { stats <- p.source.Stats() })
	p.dstLoop.Post(0, func() { stats <- p.sink.Stats() })
	run.srcStats, run.kStats = <-stats, <-stats
	return run
}

// smallFileSizes draws n payload sizes uniform in [1, capacity], the
// top included so exactly full blocks are exercised.
func smallFileSizes(n, capacity int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(capacity)
	}
	return sizes
}

func smallFileConfig() Config {
	cfg := DefaultConfig()
	cfg.BlockSize = 8 << 10
	return cfg
}

// TestChanSmallFileControlMessages pins the small-file control budget:
// a one-block push session costs exactly four control messages —
// SESSION_REQ, SESSION_RESP carrying the one credit the dataset can
// use, BLOCK_COMPLETE, DATASET_COMPLETE_ACK — and never a credit
// stall. A count is deterministic, so it can gate where wall time
// cannot.
func TestChanSmallFileControlMessages(t *testing.T) {
	const n, inFlight = 512, 16
	cfg := smallFileConfig()
	run := runSmallFiles(t, cfg, smallFileSizes(n, cfg.PayloadCapacity(), 3), inFlight)
	const negotiation = 4 // BLOCK_SIZE_REQ/RESP, CHANNELS_REQ/RESP
	if got := run.srcStats.CtrlMsgs + run.kStats.CtrlMsgs - negotiation; got != 4*n {
		t.Errorf("%d one-block sessions sent %d control messages (source %d, sink %d, less %d negotiation), want %d",
			n, got, run.srcStats.CtrlMsgs, run.kStats.CtrlMsgs, negotiation, 4*n)
	}
	if run.srcStats.CreditStalls != 0 {
		t.Errorf("source stalled for credits %d times, want 0", run.srcStats.CreditStalls)
	}
}

// TestChanAckOvertakesWriteCompletion: the sink acknowledges a session
// as soon as its last block is stored, and under immediate
// notification that ack can reach the source before the source's own
// WRITE completion. The source must still count the block: every
// result reports the whole payload in one block, on both sides.
// TestSimAckBeforeWriteCompletion forces the overtaking this test can
// only hope for.
func TestChanAckOvertakesWriteCompletion(t *testing.T) {
	for _, imm := range []bool{false, true} {
		t.Run(fmt.Sprintf("imm=%v", imm), func(t *testing.T) {
			const n, inFlight = 3000, 16
			cfg := smallFileConfig()
			cfg.NotifyViaImm = imm
			sizes := smallFileSizes(n, cfg.PayloadCapacity(), 5)
			run := runSmallFiles(t, cfg, sizes, inFlight)
			for i, r := range run.src {
				if r.Err != nil || r.Bytes != int64(sizes[i]) || r.Blocks != 1 {
					t.Fatalf("transfer %d of %d B: source result %+v, want %d B in 1 block", i, sizes[i], r, sizes[i])
				}
				if k := run.sink[r.Session]; k.Err != nil || k.Bytes != int64(sizes[i]) || k.Blocks != 1 {
					t.Fatalf("transfer %d of %d B: sink result %+v, want %d B in 1 block", i, sizes[i], k, sizes[i])
				}
			}
		})
	}
}

// TestChanAdvertisedTotalMisstated: the proactive-grant cap comes from
// the SESSION_REQ total, which is a hint. Understated, overstated and
// unknown (0) totals must each still deliver byte-exact with the pool
// and credit ledgers whole. An understated total lifts the cap at the
// first block that proves it wrong, so it must not degrade into one
// explicit credit request — one round trip of the 1 ms link — per
// on-demand batch: its credit stalls stay within twice the accurate
// run's.
func TestChanAdvertisedTotalMisstated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize = 32 << 10
	cfg.IODepth = 8
	cfg.SinkBlocks = 64
	ncfg, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(4<<20+12345, 44)
	stalls := map[string]int64{}
	for _, c := range []struct {
		name  string
		total int64
	}{
		{"accurate", int64(len(data))},
		{"understated", 4000},
		{"overstated", 16 * int64(len(data))},
		{"unknown", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := newChanPipe(t, chanfabric.Shaping{Latency: time.Millisecond}, cfg)
			if got := p.transferAdvertising(t, data, c.total); !bytes.Equal(got, data) {
				t.Fatalf("stored %d bytes that differ from the %d sent", len(got), len(data))
			}
			led := awaitCleanLedger(t, p, ncfg.SinkBlocks)
			if st := led.stats; st.CreditsGranted != st.Blocks+st.CreditsReclaimed {
				t.Errorf("credit ledger leaked: granted %d != blocks %d + reclaimed %d",
					st.CreditsGranted, st.Blocks, st.CreditsReclaimed)
			}
			st := make(chan Stats, 1)
			p.srcLoop.Post(0, func() { st <- p.source.Stats() })
			stalls[c.name] = (<-st).CreditStalls
		})
	}
	if u, a := stalls["understated"], stalls["accurate"]; u > 2*max(a, 1) {
		t.Errorf("understated total stalled %d times, accurate %d: the cap did not lift", u, a)
	}
}

// TestSimAckBeforeWriteCompletion delivers the sink's ack to the source
// while the session's one WRITE is still on the 49 ms path, in virtual
// time. The session must wait for the WRITE's completion and then
// report the block; completing on the ack alone would report 0 bytes.
func TestSimAckBeforeWriteCompletion(t *testing.T) {
	for _, imm := range []bool{false, true} {
		t.Run(fmt.Sprintf("imm=%v", imm), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.BlockSize = 1 << 20
			cfg.NotifyViaImm = imm
			p := newSimPipe(t, wanLink(), cfg)
			const total = 100000
			var res TransferResult
			done := false
			p.source.Start(func(err error) {
				if err != nil {
					t.Errorf("negotiation: %v", err)
					return
				}
				src := &hostmodel.ModelSource{Total: total, Loader: p.loader, NsPerByte: p.srcHost.Params.MemLoadNsPerByte}
				p.source.Transfer(src, total, func(r TransferResult) { res, done = r, true })
			})
			var sess *srcSession
			for sess == nil || sess.inflight == 0 {
				if p.sched.Pending() == 0 || done {
					t.Fatal("the transfer ended before its WRITE was seen in flight")
				}
				p.sched.Run(p.sched.Now() + time.Millisecond)
				sess = p.source.sessions[1]
			}
			p.source.handleCtrl(&wire.Control{Type: wire.MsgDatasetCompleteAck, Session: sess.id})
			if done {
				t.Fatalf("session completed with its WRITE in flight: %+v", res)
			}
			p.sched.RunAll()
			if !done || res.Err != nil || res.Bytes != total || res.Blocks != 1 {
				t.Fatalf("done=%v result %+v, want %d B in 1 block", done, res, total)
			}
		})
	}
}
