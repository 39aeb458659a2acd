// Package bufpool provides size-classed byte-buffer pools for the
// real-byte fabrics' receive and copy paths.
//
// Inbound SEND payloads (and any frame that cannot be placed directly
// into a registered memory region) need transient buffers; allocating
// one per frame is what made the receive path allocation-bound. Get
// hands out a buffer from the smallest power-of-two class that fits,
// and Put returns it for reuse, so a steady-state transfer recycles a
// handful of buffers instead of producing garbage at wire rate.
package bufpool

import (
	"math/bits"
	"sync"
)

const (
	// minShift is the smallest class (512 B) so tiny control payloads
	// do not fragment the classes.
	minShift = 9
	// maxShift is the largest pooled class (64 MiB); larger requests
	// fall through to plain allocation.
	maxShift = 26
)

// classes hold pooled buffers as *[]byte boxes (a slice header stored
// in an interface would allocate). boxes recycles the boxes themselves:
// Get empties the one it took a buffer out of, and Put draws from it,
// so a Get/Put cycle allocates nothing.
var (
	classes [maxShift - minShift + 1]sync.Pool
	boxes   sync.Pool
)

// classFor returns the pool index for a capacity, or -1 when the size
// is outside the pooled range.
func classFor(n int) int {
	if n <= 0 || n > 1<<maxShift {
		return -1
	}
	s := bits.Len(uint(n - 1)) // ceil(log2 n)
	if s < minShift {
		s = minShift
	}
	return s - minShift
}

// Get returns a buffer with len(buf) == n from the smallest class that
// fits. Contents are unspecified (callers overwrite). n <= 0 returns
// nil; n beyond the largest class is allocated directly.
func Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	if v := classes[c].Get(); v != nil {
		box := v.(*[]byte)
		buf := (*box)[:n]
		*box = nil
		boxes.Put(box)
		return buf
	}
	return make([]byte, n, 1<<(c+minShift))
}

// Put returns a buffer obtained from Get to its class. Buffers whose
// capacity is not an exact class size (or that are nil) are dropped to
// the garbage collector instead, so Put is safe on any slice.
func Put(buf []byte) {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	idx := classFor(c)
	if idx < 0 || 1<<(idx+minShift) != c {
		return
	}
	box, _ := boxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = buf[:c]
	classes[idx].Put(box)
}
