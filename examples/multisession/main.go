// Multisession: several concurrent dataset transfers multiplexed over
// one connection, reassembled independently at the sink.
//
// The paper's protocol tags every payload block with a session id and
// sequence number so "the application [can] issue multiple data transfer
// tasks simultaneously" over shared parallel queue pairs, and the sink
// can still deliver each dataset as an in-order stream. This example
// pushes three differently-sized datasets through four shared data
// channels at once and verifies each arrives intact and in order.
//
//	go run ./examples/multisession
package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"rftp/internal/core"
	"rftp/internal/fabric/chanfabric"
	"rftp/internal/wire"
)

func main() {
	fab := chanfabric.New()
	srcDev := fab.NewDevice("src")
	dstDev := fab.NewDevice("dst")
	// Shape the link mildly so the sessions genuinely interleave.
	fab.Connect(srcDev, dstDev, chanfabric.Shaping{Latency: 500 * time.Microsecond})

	srcLoop := chanfabric.NewLoop("source")
	dstLoop := chanfabric.NewLoop("sink")
	defer srcLoop.Stop()
	defer dstLoop.Stop()

	cfg := core.DefaultConfig()
	cfg.BlockSize = 64 << 10
	cfg.Channels = 4
	cfg.IODepth = 32
	cfg.SinkBlocks = 64

	srcEP, err := core.NewEndpoint(srcDev, srcLoop, cfg.Channels, cfg.IODepth)
	check(err)
	dstEP, err := core.NewEndpoint(dstDev, dstLoop, cfg.Channels, cfg.IODepth)
	check(err)
	check(srcEP.ConnectTo(dstEP, fab.ConnectQPs))

	sink, err := core.NewSink(dstEP, cfg)
	check(err)
	var mu sync.Mutex
	outputs := map[uint32]*bytes.Buffer{}
	sink.NewWriter = func(info core.SessionInfo) core.BlockSink {
		mu.Lock()
		defer mu.Unlock()
		buf := &bytes.Buffer{}
		outputs[info.ID] = buf
		fmt.Printf("sink: opened session %d (%d bytes expected)\n", info.ID, info.Total)
		return lockedSink{buf: buf, mu: &mu}
	}
	sinkDone := make(chan uint32, 8)
	sink.OnSessionDone = func(info core.SessionInfo, r core.TransferResult) {
		check(r.Err)
		fmt.Printf("sink: session %d complete (%d blocks)\n", info.ID, r.Blocks)
		sinkDone <- info.ID
	}

	source, err := core.NewSource(srcEP, cfg)
	check(err)

	// Three datasets of different sizes, launched concurrently.
	sizes := []int{3 << 20, 11<<20 + 57, 7 << 20}
	inputs := make([][]byte, len(sizes))
	for i, n := range sizes {
		inputs[i] = make([]byte, n)
		rand.New(rand.NewSource(int64(i + 1))).Read(inputs[i])
	}
	srcDone := make(chan core.TransferResult, len(sizes))
	srcLoop.Post(0, func() {
		source.Start(func(err error) {
			check(err)
			for i := range inputs {
				data := inputs[i]
				source.Transfer(core.ReaderSource{R: bytes.NewReader(data)}, int64(len(data)),
					func(r core.TransferResult) { srcDone <- r })
			}
		})
	})

	for range sizes {
		r := <-srcDone
		check(r.Err)
		<-sinkDone
	}

	// Match outputs to inputs by content (session ids are assigned by
	// the sink in request order, but verify by hash to be strict).
	mu.Lock()
	defer mu.Unlock()
	matched := 0
	for id, buf := range outputs {
		for i, in := range inputs {
			if sha256.Sum256(buf.Bytes()) == sha256.Sum256(in) {
				fmt.Printf("verified: session %d == dataset %d (%d bytes)\n", id, i, len(in))
				matched++
			}
		}
	}
	if matched != len(sizes) {
		log.Fatalf("multisession: only %d/%d datasets verified", matched, len(sizes))
	}
	fmt.Println("all concurrent sessions reassembled correctly")
}

// lockedSink serializes writes into a shared map of buffers.
type lockedSink struct {
	buf *bytes.Buffer
	mu  *sync.Mutex
}

// Store implements core.BlockSink.
func (s lockedSink) Store(hdr wire.BlockHeader, payload []byte, modelLen int, done func(error)) {
	s.mu.Lock()
	_, err := s.buf.Write(payload)
	s.mu.Unlock()
	done(err)
}

func check(err error) {
	if err != nil {
		log.Fatalf("multisession: %v", err)
	}
}
