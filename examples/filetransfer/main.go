// Filetransfer: a complete two-endpoint file transfer over real TCP
// sockets using the netfabric verbs emulation — the same path the
// cmd/rftp and cmd/rftpd binaries use, condensed into one program.
//
// The example creates a temporary input file, starts a sink endpoint on
// a loopback listener, dials it, transfers the file through the RFTP
// protocol (RDMA WRITE data channels + control QP), and verifies the
// output byte for byte.
//
//	go run ./examples/filetransfer
package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"rftp/internal/core"
	"rftp/internal/fabric/netfabric"
	"rftp/internal/storage"
	"rftp/internal/verbs"
)

const fileSize = 32 << 20

func main() {
	dir, err := os.MkdirTemp("", "rftp-example")
	check(err)
	defer os.RemoveAll(dir)

	// Create the input file.
	input := filepath.Join(dir, "input.dat")
	data := make([]byte, fileSize)
	rand.New(rand.NewSource(99)).Read(data)
	check(os.WriteFile(input, data, 0o644))

	cfg := core.DefaultConfig()
	cfg.BlockSize = 256 << 10
	cfg.Channels = 2
	cfg.IODepth = 16
	cfg.LoadDepth = 8  // file reads kept in flight at the source
	cfg.StoreDepth = 8 // file writes kept in flight at the sink

	// ---- Server side (sink) ----
	ln, err := netfabric.Listen("127.0.0.1:0")
	check(err)
	defer ln.Close()
	output := filepath.Join(dir, "output.dat")
	serverUp := make(chan struct{})
	serverDone := make(chan error, 1)
	go func() {
		close(serverUp)
		dev, err := ln.Accept()
		if err != nil {
			serverDone <- err
			return
		}
		defer dev.Close()
		loop := verbs.NewWallLoop("server")
		defer loop.Stop()
		ep, err := core.NewEndpoint(dev, loop, cfg.Channels, cfg.IODepth)
		if err != nil {
			serverDone <- err
			return
		}
		check(ep.Bind(dev.BindQP))
		sink, err := core.NewSink(ep, cfg)
		if err != nil {
			serverDone <- err
			return
		}
		var out *storage.FileSink
		sink.NewWriter = func(info core.SessionInfo) core.BlockSink {
			out, err = storage.OpenFileSink(output, cfg.StoreDepth)
			check(err)
			fmt.Printf("server: receiving session %d into %s\n", info.ID, output)
			return out
		}
		sink.OnSessionDone = func(info core.SessionInfo, r core.TransferResult) {
			if out != nil {
				check(out.Close())
			}
			serverDone <- r.Err
		}
		<-time.After(time.Hour) // the main goroutine exits the process first
	}()
	<-serverUp

	// ---- Client side (source) ----
	dev, err := netfabric.Dial(ln.Addr().String())
	check(err)
	defer dev.Close()
	loop := verbs.NewWallLoop("client")
	defer loop.Stop()
	ep, err := core.NewEndpoint(dev, loop, cfg.Channels, cfg.IODepth)
	check(err)
	check(ep.Bind(dev.BindQP))
	source, err := core.NewSource(ep, cfg)
	check(err)

	src, err := storage.OpenFileSource(input, cfg.LoadDepth)
	check(err)
	defer src.Close()

	start := time.Now()
	clientDone := make(chan core.TransferResult, 1)
	loop.Post(0, func() {
		source.Start(func(err error) {
			check(err)
			source.Transfer(src, src.Size(),
				func(r core.TransferResult) { clientDone <- r })
		})
	})
	res := <-clientDone
	check(res.Err)
	check(<-serverDone)
	elapsed := time.Since(start)

	got, err := os.ReadFile(output)
	check(err)
	if sha256.Sum256(got) != sha256.Sum256(data) || !bytes.Equal(got, data) {
		log.Fatal("filetransfer: output does not match input")
	}
	gbps := float64(res.Bytes) * 8 / elapsed.Seconds() / 1e9
	fmt.Printf("client: sent %d MiB in %v (%.2f Gbps, %d blocks) — verified byte-identical\n",
		res.Bytes>>20, elapsed.Round(time.Millisecond), gbps, res.Blocks)
}

func check(err error) {
	if err != nil {
		log.Fatalf("filetransfer: %v", err)
	}
}
