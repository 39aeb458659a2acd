package netfabric

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"rftp/internal/verbs"
)

// newPair is pair for benchmarks too (testing.TB instead of *testing.T).
func newPair(tb testing.TB) (*Device, *Device) {
	tb.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	type res struct {
		d   *Device
		err error
	}
	ch := make(chan res, 1)
	go func() {
		d, err := ln.Accept()
		ch <- res{d, err}
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		tb.Fatal(r.err)
	}
	tb.Cleanup(func() { client.Close(); r.d.Close() })
	return client, r.d
}

// newBoundQPs is boundQPs for benchmarks too.
func newBoundQPs(tb testing.TB, a, b *Device, la, lb verbs.Loop, ch uint32) (verbs.QP, verbs.QP, *verbs.UpcallCQ, *verbs.UpcallCQ) {
	tb.Helper()
	cqA := a.CreateCQ(la, 128).(*verbs.UpcallCQ)
	cqB := b.CreateCQ(lb, 128).(*verbs.UpcallCQ)
	qa, err := a.CreateQP(verbs.QPConfig{PD: a.AllocPD(), SendCQ: cqA, RecvCQ: cqA, MaxSend: 64, MaxRecv: 64})
	if err != nil {
		tb.Fatal(err)
	}
	qb, err := b.CreateQP(verbs.QPConfig{PD: b.AllocPD(), SendCQ: cqB, RecvCQ: cqB, MaxSend: 64, MaxRecv: 64})
	if err != nil {
		tb.Fatal(err)
	}
	if err := a.BindQP(qa, ch); err != nil {
		tb.Fatal(err)
	}
	if err := b.BindQP(qb, ch); err != nil {
		tb.Fatal(err)
	}
	return qa, qb, cqA, cqB
}

// writeBlocks posts count WRITEs of block and waits for each completion.
func writeBlocks(tb testing.TB, qa verbs.QP, done chan verbs.WC, block []byte, remote verbs.RemoteAddr, count int) {
	tb.Helper()
	for i := 0; i < count; i++ {
		if err := qa.PostSend(&verbs.SendWR{WRID: uint64(i), Op: verbs.OpWrite, Data: block, Remote: remote}); err != nil {
			tb.Fatal(err)
		}
		select {
		case wc := <-done:
			if wc.Status != verbs.StatusSuccess {
				tb.Fatalf("write %d: %+v", i, wc)
			}
		case <-time.After(10 * time.Second):
			tb.Fatal("write completion timeout")
		}
	}
}

// TestWritePathZeroCopy asserts the headline property of the data path:
// a one-sided WRITE over a bound channel moves its payload with zero
// CPU copies (the sender's frame references the caller's buffer; the
// receiver reads the socket directly into the registered region) and
// without payload-sized allocations per block.
func TestWritePathZeroCopy(t *testing.T) {
	a, b := pair(t)
	la, lb := verbs.NewWallLoop("a"), verbs.NewWallLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	qa, _, cqA, _ := boundQPs(t, a, b, la, lb, 0)
	done := make(chan verbs.WC, 1)
	cqA.SetHandler(func(wc verbs.WC) { done <- wc })

	const blockSize = 256 << 10
	sink := make([]byte, blockSize)
	mr, err := b.RegisterMR(b.AllocPD(), sink, verbs.AccessRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, blockSize)
	rand.New(rand.NewSource(7)).Read(block)

	// Warm the frame and buffer pools before measuring.
	writeBlocks(t, qa, done, block, mr.Remote(0), 8)

	const blocks = 32
	copiedBefore := verbs.CopiedBytes()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	writeBlocks(t, qa, done, block, mr.Remote(0), blocks)
	runtime.ReadMemStats(&msAfter)
	copied := verbs.CopiedBytes() - copiedBefore

	if copied != 0 {
		t.Errorf("WRITE path copied %d payload bytes over %d blocks, want 0 (zero-copy)", copied, blocks)
	}
	allocsPerBlock := float64(msAfter.Mallocs-msBefore.Mallocs) / blocks
	bytesPerBlock := float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / blocks
	// The bound is deliberately loose (completion dispatch allocates a
	// closure or two); what it rules out is per-block payload copies or
	// frame/buffer churn, which would cost thousands of allocs and
	// blockSize bytes each.
	if allocsPerBlock > 100 {
		t.Errorf("allocs/block = %.1f, want <= 100", allocsPerBlock)
	}
	if bytesPerBlock > blockSize/8 {
		t.Errorf("heap bytes/block = %.0f, want well under the %d block size", bytesPerBlock, blockSize)
	}
	b.Sync() // order the reader's in-place placement before our read
	if !bytes.Equal(sink, block) {
		t.Fatal("payload corrupted")
	}
}

// TestOutOfOrderBlockReassembly writes blocks of a region in shuffled
// offset order across two channels, then reads the whole region back
// and checks it byte-for-byte — the out-of-order reassembly a striped
// multi-channel transfer depends on.
func TestOutOfOrderBlockReassembly(t *testing.T) {
	a, b := pair(t)
	la, lb := verbs.NewWallLoop("a"), verbs.NewWallLoop("b")
	t.Cleanup(func() { la.Stop(); lb.Stop() })
	qa1, _, cq1, _ := boundQPs(t, a, b, la, lb, 1)
	qa2, _, cq2, _ := boundQPs(t, a, b, la, lb, 2)
	wcs1 := make(chan verbs.WC, 64)
	wcs2 := make(chan verbs.WC, 64)
	cq1.SetHandler(func(wc verbs.WC) { wcs1 <- wc })
	cq2.SetHandler(func(wc verbs.WC) { wcs2 <- wc })

	const blockSize = 32 << 10
	const nBlocks = 16
	region := make([]byte, blockSize*nBlocks)
	mr, err := b.RegisterMR(b.AllocPD(), region, verbs.AccessRemoteWrite|verbs.AccessRemoteRead)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, blockSize*nBlocks)
	rand.New(rand.NewSource(11)).Read(want)

	order := rand.New(rand.NewSource(12)).Perm(nBlocks)
	for i, blk := range order {
		qp, wcs := qa1, wcs1
		if i%2 == 1 {
			qp, wcs = qa2, wcs2
		}
		off := blk * blockSize
		if err := qp.PostSend(&verbs.SendWR{WRID: uint64(blk), Op: verbs.OpWrite,
			Data: want[off : off+blockSize], Remote: mr.Remote(off)}); err != nil {
			t.Fatal(err)
		}
		select {
		case wc := <-wcs:
			if wc.Status != verbs.StatusSuccess {
				t.Fatalf("block %d: %+v", blk, wc)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("write timeout")
		}
	}
	b.Sync() // order the reader's in-place placements before our read
	if !bytes.Equal(region, want) {
		t.Fatal("shuffled writes did not reassemble the region")
	}

	// Read the full region back through channel 1.
	local := make([]byte, len(region))
	lmr, err := a.RegisterMR(a.AllocPD(), local, verbs.AccessLocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := qa1.PostSend(&verbs.SendWR{WRID: 99, Op: verbs.OpRead,
		Remote: mr.Remote(0), ReadLen: len(region), Local: lmr}); err != nil {
		t.Fatal(err)
	}
	select {
	case wc := <-wcs1:
		if wc.Status != verbs.StatusSuccess || wc.ByteLen != len(region) {
			t.Fatalf("read-back WC: %+v", wc)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read timeout")
	}
	if !bytes.Equal(local, want) {
		t.Fatal("read-back mismatch")
	}
}

// TestConcurrentMultiChannelWriteRead hammers four channels from four
// goroutines, each interleaving WRITEs into its own stripe with READs
// back, to catch data races in the shared device paths (run under
// -race by make check).
func TestConcurrentMultiChannelWriteRead(t *testing.T) {
	a, b := pair(t)
	const channels = 4
	const rounds = 24
	const stripe = 16 << 10

	region := make([]byte, channels*stripe)
	mr, err := b.RegisterMR(b.AllocPD(), region, verbs.AccessRemoteWrite|verbs.AccessRemoteRead)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, channels)
	for c := 0; c < channels; c++ {
		la := verbs.NewWallLoop("a")
		lb := verbs.NewWallLoop("b")
		t.Cleanup(func() { la.Stop(); lb.Stop() })
		qa, _, cqA, _ := boundQPs(t, a, b, la, lb, uint32(c+1))
		wcs := make(chan verbs.WC, 8)
		cqA.SetHandler(func(wc verbs.WC) { wcs <- wc })
		wg.Add(1)
		go func(c int, qa verbs.QP, wcs chan verbs.WC) {
			defer wg.Done()
			off := c * stripe
			block := make([]byte, stripe)
			local := make([]byte, stripe)
			lmr, err := a.RegisterMR(a.AllocPD(), local, verbs.AccessLocalWrite)
			if err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(100 + c)))
			wait := func(op string) bool {
				select {
				case wc := <-wcs:
					if wc.Status != verbs.StatusSuccess {
						errs <- &errWC{op: op, wc: wc}
						return false
					}
					return true
				case <-time.After(20 * time.Second):
					errs <- &errWC{op: op + " timeout"}
					return false
				}
			}
			for r := 0; r < rounds; r++ {
				rng.Read(block)
				if err := qa.PostSend(&verbs.SendWR{Op: verbs.OpWrite, Data: block, Remote: mr.Remote(off)}); err != nil {
					errs <- err
					return
				}
				if !wait("write") {
					return
				}
				if err := qa.PostSend(&verbs.SendWR{Op: verbs.OpRead, Remote: mr.Remote(off), ReadLen: stripe, Local: lmr}); err != nil {
					errs <- err
					return
				}
				if !wait("read") {
					return
				}
				if !bytes.Equal(local, block) {
					errs <- &errWC{op: "round-trip mismatch"}
					return
				}
			}
		}(c, qa, wcs)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type errWC struct {
	op string
	wc verbs.WC
}

func (e *errWC) Error() string { return "netfabric test: " + e.op }

// BenchmarkWriteBlockThroughput measures the one-sided WRITE fast path:
// bytes/s via b.SetBytes, allocations via -benchmem, and CPU-copied
// payload bytes per op as a custom metric (0 = zero-copy end to end).
func BenchmarkWriteBlockThroughput(b *testing.B) {
	devA, devB := newPair(b)
	la, lb := verbs.NewWallLoop("a"), verbs.NewWallLoop("b")
	b.Cleanup(func() { la.Stop(); lb.Stop() })
	qa, _, cqA, _ := newBoundQPs(b, devA, devB, la, lb, 0)
	done := make(chan verbs.WC, 1)
	cqA.SetHandler(func(wc verbs.WC) { done <- wc })

	const blockSize = 1 << 20
	sink := make([]byte, blockSize)
	mr, err := devB.RegisterMR(devB.AllocPD(), sink, verbs.AccessRemoteWrite)
	if err != nil {
		b.Fatal(err)
	}
	block := make([]byte, blockSize)
	rand.New(rand.NewSource(21)).Read(block)
	writeBlocks(b, qa, done, block, mr.Remote(0), 4) // warm pools

	b.SetBytes(blockSize)
	b.ReportAllocs()
	copiedBefore := verbs.CopiedBytes()
	b.ResetTimer()
	writeBlocks(b, qa, done, block, mr.Remote(0), b.N)
	b.StopTimer()
	b.ReportMetric(float64(verbs.CopiedBytes()-copiedBefore)/float64(b.N), "copied-B/op")
}

// BenchmarkSendRecvThroughput measures the two-sided path, which stages
// the payload through a pooled buffer into the posted receive region
// (one copy at placement, zero allocations steady-state).
func BenchmarkSendRecvThroughput(b *testing.B) {
	devA, devB := newPair(b)
	la, lb := verbs.NewWallLoop("a"), verbs.NewWallLoop("b")
	b.Cleanup(func() { la.Stop(); lb.Stop() })
	qa, qb, cqA, cqB := newBoundQPs(b, devA, devB, la, lb, 0)
	acks := make(chan verbs.WC, 1)
	recvs := make(chan verbs.WC, 1)
	cqA.SetHandler(func(wc verbs.WC) { acks <- wc })
	cqB.SetHandler(func(wc verbs.WC) { recvs <- wc })

	const blockSize = 64 << 10
	rbuf := make([]byte, blockSize)
	mr, err := devB.RegisterMR(devB.AllocPD(), rbuf, verbs.AccessLocalWrite)
	if err != nil {
		b.Fatal(err)
	}
	block := make([]byte, blockSize)
	rand.New(rand.NewSource(22)).Read(block)

	iter := func() {
		if err := qb.PostRecv(&verbs.RecvWR{MR: mr, Len: blockSize}); err != nil {
			b.Fatal(err)
		}
		if err := qa.PostSend(&verbs.SendWR{Op: verbs.OpSend, Data: block}); err != nil {
			b.Fatal(err)
		}
		for got := 0; got < 2; {
			select {
			case <-acks:
				got++
			case <-recvs:
				got++
			case <-time.After(10 * time.Second):
				b.Fatal("send/recv timeout")
			}
		}
	}
	for i := 0; i < 4; i++ {
		iter() // warm pools
	}
	b.SetBytes(blockSize)
	b.ReportAllocs()
	copiedBefore := verbs.CopiedBytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
	b.StopTimer()
	b.ReportMetric(float64(verbs.CopiedBytes()-copiedBefore)/float64(b.N), "copied-B/op")
}
