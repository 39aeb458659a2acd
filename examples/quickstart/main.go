// Quickstart: move bytes through the RFTP protocol core in-process.
//
// This wires a Source and Sink over the channel fabric (real goroutines,
// real bytes, no network), negotiates parameters, transfers 64 MiB, and
// verifies the SHA-256 of what arrived — the smallest end-to-end use of
// the public protocol API.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"log"
	"math/rand"
	"time"

	"rftp/internal/core"
	"rftp/internal/fabric/chanfabric"
	"rftp/internal/verbs"
)

func main() {
	// 1. A fabric with two devices, connected back to back.
	fab := chanfabric.New()
	srcDev := fab.NewDevice("src")
	dstDev := fab.NewDevice("dst")
	fab.Connect(srcDev, dstDev, chanfabric.Shaping{}) // unshaped: memory speed

	// 2. One event loop per host (the middleware's event-driven core).
	srcLoop := verbs.NewWallLoop("source")
	dstLoop := verbs.NewWallLoop("sink")
	defer srcLoop.Stop()
	defer dstLoop.Stop()

	// 3. Endpoints: a control QP plus data-channel QPs on each side.
	cfg := core.DefaultConfig()
	cfg.BlockSize = 1 << 20 // 1 MiB blocks
	cfg.Channels = 2        // two parallel data QPs
	cfg.IODepth = 16        // blocks in flight

	srcEP, err := core.NewEndpoint(srcDev, srcLoop, cfg.Channels, cfg.IODepth)
	check(err)
	dstEP, err := core.NewEndpoint(dstDev, dstLoop, cfg.Channels, cfg.IODepth)
	check(err)
	check(srcEP.ConnectTo(dstEP, fab.ConnectQPs))

	// 4. The sink: collects payload, reports when the session finishes.
	sink, err := core.NewSink(dstEP, cfg)
	check(err)
	var received bytes.Buffer
	sinkDone := make(chan core.TransferResult, 1)
	sink.NewWriter = func(info core.SessionInfo) core.BlockSink {
		fmt.Printf("sink: accepted session %d (%d bytes incoming)\n", info.ID, info.Total)
		return core.WriterSink{W: &received}
	}
	sink.OnSessionDone = func(info core.SessionInfo, r core.TransferResult) { sinkDone <- r }

	// 5. The source: negotiate, then transfer one dataset.
	source, err := core.NewSource(srcEP, cfg)
	check(err)
	payload := make([]byte, 64<<20)
	rand.New(rand.NewSource(7)).Read(payload)

	start := time.Now()
	srcDone := make(chan core.TransferResult, 1)
	srcLoop.Post(0, func() {
		source.Start(func(err error) {
			check(err)
			fmt.Println("source: negotiation complete (block size, channels, session)")
			source.Transfer(core.ReaderSource{R: bytes.NewReader(payload)}, int64(len(payload)),
				func(r core.TransferResult) { srcDone <- r })
		})
	})

	src := <-srcDone
	snk := <-sinkDone
	check(src.Err)
	check(snk.Err)
	elapsed := time.Since(start)

	if sha256.Sum256(received.Bytes()) != sha256.Sum256(payload) {
		log.Fatal("quickstart: payload corrupted in flight")
	}
	gbps := float64(src.Bytes) * 8 / elapsed.Seconds() / 1e9
	fmt.Printf("transferred %d MiB in %v (%.2f Gbps) across %d blocks — SHA-256 verified\n",
		src.Bytes>>20, elapsed.Round(time.Millisecond), gbps, src.Blocks)
	st := sourceStats(srcLoop, source)
	fmt.Printf("protocol: %d control messages, %d credit stalls\n", st.CtrlMsgs, st.CreditStalls)
}

// sourceStats reads stats on the source's own loop.
func sourceStats(loop *verbs.WallLoop, s *core.Source) core.Stats {
	ch := make(chan core.Stats, 1)
	loop.Post(0, func() { ch <- s.Stats() })
	return <-ch
}

func check(err error) {
	if err != nil {
		log.Fatalf("quickstart: %v", err)
	}
}
