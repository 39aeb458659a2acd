package core

// step is what one session's turn in a sweep came to.
type step uint8

const (
	stepSkip    step = iota // nothing to move for this session right now
	stepTook                // moved one block; the session may have more
	stepBlocked             // a shared resource ran out: stop and resume here
)

// sweep drains a session list round-robin, one block per session per
// turn, so blocks from many sessions interleave onto the shared
// channels and a session with nothing to move is skipped rather than
// parking in front of everyone else. Passes repeat until one moves
// nothing; the start rotates each pass, and a blocked sweep resumes at
// the session that was denied.
type sweep[T any] struct {
	next int
	// step is bound once by the owner, so running a sweep allocates
	// nothing.
	step func(T) step
}

func (w *sweep[T]) run(list *[]T) {
	for progress := true; progress; {
		progress = false
		n := len(*list)
		for i := 0; i < n; i++ {
			// A step can fail a post and re-enter the state machine
			// mid-loop, removing a session; index against the live
			// length, not the snapshot.
			m := len(*list)
			if m == 0 {
				return
			}
			switch w.step((*list)[(w.next+i)%m]) {
			case stepTook:
				progress = true
			case stepBlocked:
				w.next = (w.next + i) % m
				return
			}
		}
		if n > 0 {
			w.next = (w.next + 1) % n
		}
	}
}

// pickChannel returns the next data channel, round-robin from *next,
// whose load is below depth and which no exclusion set marks, or -1
// when every channel is at depth or excluded.
func pickChannel(next *int, load []int, depth int, excluded ...[]bool) int {
	n := len(load)
scan:
	for i := 0; i < n; i++ {
		ch := (*next + i) % n
		if load[ch] >= depth {
			continue
		}
		for _, ex := range excluded {
			if ex[ch] {
				continue scan
			}
		}
		*next = (ch + 1) % n
		return ch
	}
	return -1
}
