// Package sessionaffinity is a deliberately broken fixture for
// loopconfine's session-record check: per-session records mutated on
// raw goroutines, next to the sanctioned shapes (on-loop methods,
// closures handed back through Post/After, writes to unrelated types)
// that must stay quiet.
package sessionaffinity

// loop mimics the verbs.Loop scheduling surface.
type loop struct{}

func (l *loop) Post(ch int, fn func())   { fn() }
func (l *loop) After(d int64, fn func()) { fn() }
func (l *loop) enqueue(fn func())        { fn() }

type sessionInfo struct {
	ID    uint32
	Bytes int64
}

// srcSession mirrors the source-side per-tenant record.
type srcSession struct {
	info    sessionInfo
	loads   int
	credits []uint64
	eof     bool
}

// sinkSession mirrors the sink-side per-tenant record.
type sinkSession struct {
	info    sessionInfo
	granted int
	deficit int
}

// unrelated proves the check keys on the session types, not on field
// names.
type unrelated struct {
	granted int
	loads   int
}

// onLoop is an ordinary method context: assumed loop-confined, fine.
func onLoop(s *srcSession, k *sinkSession) {
	s.loads++
	s.eof = true
	k.granted += 4
	k.deficit = 0
}

func rawAssign(s *srcSession) {
	go func() {
		s.eof = true // want `session-affine write \(srcSession.eof\) on a raw goroutine`
	}()
}

func rawIncDec(s *srcSession) {
	go func() {
		s.loads++ // want `session-affine write \(srcSession.loads\) on a raw goroutine`
	}()
}

func rawOpAssign(k *sinkSession) {
	go func() {
		k.granted += 2 // want `session-affine write \(sinkSession.granted\) on a raw goroutine`
	}()
}

func rawNested(k *sinkSession) {
	go func() {
		k.info.Bytes = 99 // want `session-affine write \(sinkSession.info\) on a raw goroutine`
	}()
}

func rawIndexed(sessions map[uint32]*sinkSession) {
	go func() {
		sessions[1].deficit = 3 // want `session-affine write \(sinkSession.deficit\) on a raw goroutine`
	}()
}

// postedBack crosses a goroutine boundary the sanctioned way: the
// closure is handed to a loop scheduler, so it runs loop-confined.
func postedBack(l *loop, s *srcSession, k *sinkSession) {
	go func() {
		l.Post(0, func() {
			s.loads++
			k.granted--
		})
		l.After(10, func() {
			k.deficit = 0
		})
	}()
}

// handler literals escape through an unknown callee and inherit their
// defining (on-loop) context: no finding.
func handler(l *loop, s *srcSession) {
	l.enqueue(func() {
		s.loads++
	})
}

// otherTypes: same field names on a non-session type stay quiet, as do
// reads of session fields on raw goroutines.
func otherTypes(u *unrelated, s *srcSession, out chan int) {
	go func() {
		u.granted++
		u.loads = 7
		out <- s.loads
	}()
}

func suppressed(k *sinkSession) {
	go func() {
		k.granted = 0 //lint:allow loopconfine fixture: proves suppression drops the finding
	}()
}
