package netfabric

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"rftp/internal/core"
	"rftp/internal/trace"
	"rftp/internal/verbs"
)

var mu sync.Mutex

// TestConcurrentConnections runs two independent RFTP transfers through
// one listener at the same time (the rftpd serving pattern).
func TestConcurrentConnections(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	cfg := core.DefaultConfig()
	cfg.BlockSize = 64 << 10
	cfg.Channels = 2
	cfg.IODepth = 8

	const conns = 2
	type serverOut struct {
		buf  bytes.Buffer
		err  error
		ring *trace.Ring
	}
	outs := make([]*serverOut, conns)
	var serverWG sync.WaitGroup
	serverWG.Add(conns)
	go func() {
		for i := 0; i < conns; i++ {
			dev, err := ln.Accept()
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			i := i
			go func() {
				defer serverWG.Done()
				defer dev.Close()
				loop := verbs.NewWallLoop(fmt.Sprintf("srv%d", i))
				defer loop.Stop()
				ep, err := core.NewEndpoint(dev, loop, cfg.Channels, cfg.IODepth)
				if err != nil {
					t.Errorf("endpoint: %v", err)
					return
				}
				sink, err := core.NewSink(ep, cfg)
				if err != nil {
					t.Errorf("sink: %v", err)
					return
				}
				out := &serverOut{ring: trace.NewRing(64, nil)}
				sink.Trace = out.ring
				outs[i] = out
				done := make(chan struct{})
				sink.NewWriter = func(core.SessionInfo) core.BlockSink {
					return core.WriterSink{W: &out.buf}
				}
				sink.OnSessionDone = func(info core.SessionInfo, r core.TransferResult) {
					out.err = r.Err
					close(done)
				}
				// Bind only after the sink's callbacks are installed:
				// parked frames replay the moment channel 0 binds.
				if err := ep.Bind(dev.BindQP); err != nil {
					t.Errorf("bind: %v", err)
					return
				}
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					out.err = fmt.Errorf("server %d timed out", i)
				}
			}()
		}
	}()

	inputs := make([][]byte, conns)
	var clientWG sync.WaitGroup
	for i := 0; i < conns; i++ {
		inputs[i] = make([]byte, 1<<20+i*12345)
		rand.New(rand.NewSource(int64(i + 1))).Read(inputs[i])
		clientWG.Add(1)
		i := i
		go func() {
			defer clientWG.Done()
			dev, err := Dial(ln.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer dev.Close()
			loop := verbs.NewWallLoop(fmt.Sprintf("cli%d", i))
			defer loop.Stop()
			ep, err := core.NewEndpoint(dev, loop, cfg.Channels, cfg.IODepth)
			if err != nil {
				t.Errorf("endpoint: %v", err)
				return
			}
			if err := ep.Bind(dev.BindQP); err != nil {
				t.Errorf("bind: %v", err)
				return
			}
			source, err := core.NewSource(ep, cfg)
			if err != nil {
				t.Errorf("source: %v", err)
				return
			}
			ring := trace.NewRing(64, nil)
			source.Trace = ring
			done := make(chan error, 1)
			loop.Post(0, func() {
				source.Start(func(err error) {
					if err != nil {
						done <- err
						return
					}
					source.Transfer(core.ReaderSource{R: bytes.NewReader(inputs[i])},
						int64(len(inputs[i])), func(r core.TransferResult) { done <- r.Err })
				})
			})
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("client %d: %v", i, err)
				}
			case <-time.After(15 * time.Second):
				mu.Lock()
				fmt.Printf("--- client %d trace ---\n", i)
				ring.Render(os.Stdout)
				for j, o := range outs {
					if o != nil {
						fmt.Printf("--- server %d trace (buf=%d) ---\n", j, o.buf.Len())
						o.ring.Render(os.Stdout)
					}
				}
				mu.Unlock()
				t.Errorf("client %d timed out", i)
			}
		}()
	}
	clientWG.Wait()
	serverWG.Wait()

	// Each server output must match one input (connection order may
	// differ from client launch order).
	matched := 0
	for i, out := range outs {
		if out == nil {
			t.Fatalf("server %d produced nothing", i)
		}
		if out.err != nil {
			t.Fatalf("server %d: %v", i, out.err)
		}
		for _, in := range inputs {
			if bytes.Equal(out.buf.Bytes(), in) {
				matched++
				break
			}
		}
	}
	if matched != conns {
		t.Fatalf("only %d/%d outputs matched inputs", matched, conns)
	}
}
