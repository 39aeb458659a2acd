package storage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rftp/internal/core"
	"rftp/internal/telemetry"
	"rftp/internal/wire"
)

func TestEngineRunsJobsAndCloseDrains(t *testing.T) {
	e := NewEngine(4)
	var mu sync.Mutex
	ran := 0
	for i := 0; i < 100; i++ {
		e.submit(func() {
			mu.Lock()
			ran++
			mu.Unlock()
		})
	}
	e.Close()
	if ran != 100 {
		t.Fatalf("ran %d of 100 jobs before Close returned", ran)
	}
	e.Close() // second Close is a no-op
}

func TestEngineMetrics(t *testing.T) {
	reg := telemetry.NewRegistry("io")
	m := core.NewIOMetrics(reg)
	e := NewEngine(2)
	e.SetMetrics(m)
	done := make(chan struct{}, 10)
	for i := 0; i < 10; i++ {
		e.submit(func() { done <- struct{}{} })
	}
	for i := 0; i < 10; i++ {
		<-done
	}
	e.Close()
	if n := m.QueueWait.Count(); n != 10 {
		t.Fatalf("queue-wait observations = %d, want 10", n)
	}
	if n := m.DeviceTime.Count(); n != 10 {
		t.Fatalf("device-time observations = %d, want 10", n)
	}
}

// TestFileSourceLoadAtContract checks the three LoadAt regimes against
// the core.BlockSourceAt contract: interior windows full with
// eof=false, the straddling window short with eof=true, windows at or
// past the end empty with eof=true.
func TestFileSourceLoadAtContract(t *testing.T) {
	const size, capacity = 10_000, 4096
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	src := NewFileSource(bytes.NewReader(data), size, NewEngine(2))
	defer src.Engine().Close()

	load := func(off uint64) (int, bool) {
		t.Helper()
		p := make([]byte, capacity)
		ch := make(chan struct{})
		var n int
		var eof bool
		src.LoadAt(p, capacity, off, func(gotN int, gotEOF bool, err error) {
			if err != nil {
				t.Errorf("LoadAt(%d): %v", off, err)
			}
			n, eof = gotN, gotEOF
			close(ch)
		})
		<-ch
		if n > 0 && !bytes.Equal(p[:n], data[off:int(off)+n]) {
			t.Errorf("LoadAt(%d): payload mismatch", off)
		}
		return n, eof
	}

	if n, eof := load(0); n != capacity || eof {
		t.Fatalf("interior load = (%d, %v), want (%d, false)", n, eof, capacity)
	}
	if n, eof := load(2 * capacity); n != size-2*capacity || !eof {
		t.Fatalf("straddling load = (%d, %v), want (%d, true)", n, eof, size-2*capacity)
	}
	if n, eof := load(3 * capacity); n != 0 || !eof {
		t.Fatalf("past-end load = (%d, %v), want (0, true)", n, eof)
	}
}

// TestFileRoundTripConcurrent drives a FileSource and FileSink directly
// — many loads and stores in flight on multi-worker engines, completing
// out of order — and verifies the destination file matches the source
// byte for byte. Run under -race this exercises the engine's
// synchronization.
func TestFileRoundTripConcurrent(t *testing.T) {
	const size, capacity = 1<<20 + 12345, 32 << 10
	dir := t.TempDir()
	srcPath, dstPath := filepath.Join(dir, "src"), filepath.Join(dir, "dst")
	data := make([]byte, size)
	rand.New(rand.NewSource(2)).Read(data)
	if err := os.WriteFile(srcPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	src, err := OpenFileSource(srcPath, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.Size() != size {
		t.Fatalf("Size() = %d, want %d", src.Size(), size)
	}
	sink, err := OpenFileSink(dstPath, 4)
	if err != nil {
		t.Fatal(err)
	}

	nBlocks := (size + capacity - 1) / capacity
	var wg sync.WaitGroup
	errs := make(chan error, 2*nBlocks)
	for i := 0; i < nBlocks; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			off := uint64(i * capacity)
			p := make([]byte, capacity)
			loaded := make(chan int, 1)
			src.LoadAt(p, capacity, off, func(n int, eof bool, err error) {
				if err != nil {
					errs <- err
				}
				loaded <- n
			})
			n := <-loaded
			stored := make(chan struct{})
			hdr := wire.BlockHeader{Seq: uint32(i), Offset: off, PayloadLen: uint32(n)}
			sink.Store(hdr, p[:n], n, func(err error) {
				if err != nil {
					errs <- err
				}
				close(stored)
			})
			<-stored
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dstPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("destination differs from source (len %d vs %d)", len(got), len(data))
	}
}

// TestAsyncWrappers checks that AsyncSource preserves the wrapped
// behavior while running it off the caller's goroutine.
func TestAsyncWrappers(t *testing.T) {
	data := []byte("hello, storage pipeline")
	eng := NewEngine(1)
	defer eng.Close()

	src := NewAsyncSource(core.ReaderSource{R: bytes.NewReader(data)}, eng)
	p := make([]byte, 8)
	got := []byte{}
	for {
		ch := make(chan struct{})
		var n int
		var eof bool
		src.Load(p, len(p), func(gotN int, gotEOF bool, err error) {
			if err != nil {
				t.Errorf("Load: %v", err)
			}
			n, eof = gotN, gotEOF
			close(ch)
		})
		<-ch
		got = append(got, p[:n]...)
		if eof {
			break
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("AsyncSource read %q, want %q", got, data)
	}
}
