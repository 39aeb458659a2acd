package bufpool

import "testing"

func TestGetLengthAndClassCapacity(t *testing.T) {
	cases := map[int]int{
		1:           512,
		512:         512,
		513:         1024,
		4096:        4096,
		5000:        8192,
		1 << 20:     1 << 20,
		1<<20 + 1:   2 << 20,
		4<<20 - 100: 4 << 20,
	}
	for n, wantCap := range cases {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d): len = %d", n, len(b))
		}
		if cap(b) != wantCap {
			t.Fatalf("Get(%d): cap = %d, want %d", n, cap(b), wantCap)
		}
		Put(b)
	}
}

func TestReuseAfterPut(t *testing.T) {
	b := Get(4096)
	b[0] = 0xAB
	Put(b)
	// The next Get of the same class should hand back the pooled
	// buffer (single-goroutine, so the per-P cache hits).
	c := Get(100)
	if cap(c) != 512 {
		t.Fatalf("class mixed up: cap = %d", cap(c))
	}
	d := Get(2049)
	if len(d) != 2049 || cap(d) != 4096 {
		t.Fatalf("Get(2049): len %d cap %d", len(d), cap(d))
	}
}

func TestZeroAndOversize(t *testing.T) {
	if Get(0) != nil || Get(-5) != nil {
		t.Fatal("non-nil buffer for n <= 0")
	}
	huge := Get(1<<26 + 1)
	if len(huge) != 1<<26+1 {
		t.Fatalf("oversize len = %d", len(huge))
	}
	Put(huge) // not a class size: dropped, must not panic
	Put(nil)  // must not panic
	Put(make([]byte, 100, 100))
}

// TestClassBoundaries pins Get's behavior exactly at, one over, and one
// under each interesting class edge, including both ends of the pooled
// range.
func TestClassBoundaries(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{511, 512},  // one under the smallest class
		{512, 512},  // exactly the smallest class
		{513, 1024}, // one over: next class up
		{1023, 1024},
		{1024, 1024},
		{1025, 2048},
		{1<<26 - 1, 1 << 26}, // one under the largest class
		{1 << 26, 1 << 26},   // exactly the largest pooled class
	}
	for _, c := range cases {
		b := Get(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Fatalf("Get(%d): len %d cap %d, want len %d cap %d",
				c.n, len(b), cap(b), c.n, c.wantCap)
		}
		Put(b)
	}
	// One over the largest class: plain allocation, exact capacity.
	huge := Get(1<<26 + 1)
	if len(huge) != 1<<26+1 || cap(huge) != 1<<26+1 {
		t.Fatalf("oversize: len %d cap %d", len(huge), cap(huge))
	}
}

// TestPutWrongCapacityDoesNotPoisonClass puts a buffer whose capacity
// is a power of two below the smallest class; it must be dropped, not
// filed into class 0 where a later Get(512) would reslice past its
// capacity.
func TestPutWrongCapacityDoesNotPoisonClass(t *testing.T) {
	Put(make([]byte, 256))      // power of two, but under minShift
	Put(make([]byte, 0, 1<<30)) // power of two, but over maxShift
	for i := 0; i < 64; i++ {   // drain anything cached in class 0
		b := Get(512)
		if cap(b) < 512 {
			t.Fatalf("class 0 poisoned: Get(512) cap = %d", cap(b))
		}
	}
}

// TestGetPutNoAlloc: a steady Get/Put cycle recycles both the buffer
// and the box the class pool holds it in.
func TestGetPutNoAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() { Put(Get(8 << 10)) })
	if allocs != 0 {
		t.Fatalf("Put(Get(8 KiB)) allocates %v times per cycle", allocs)
	}
}

// TestZeroLengthRoundTrip pins the documented n <= 0 contract.
func TestZeroLengthRoundTrip(t *testing.T) {
	if b := Get(0); b != nil {
		t.Fatalf("Get(0) = %v, want nil", b)
	}
	Put([]byte{}) // zero-length, zero-cap: silently dropped
}
