package trace

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedClock() func() time.Duration {
	var n time.Duration
	return func() time.Duration {
		n += time.Millisecond
		return n
	}
}

func TestEmitAndEvents(t *testing.T) {
	r := NewRing(8, fixedClock())
	r.Emit(Event{Cat: CatNego, Name: "hello", V1: 1})
	r.Emit(Event{Cat: CatBlock, Name: "block", Block: 2, Channel: 3})
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Name != "hello" || evs[0].V1 != 1 || evs[0].Cat != CatNego || evs[0].Seq != 1 {
		t.Fatalf("ev0: %+v", evs[0])
	}
	if evs[1].Block != 2 || evs[1].Channel != 3 || evs[1].At <= evs[0].At {
		t.Fatalf("ev1: %+v", evs[1])
	}
	// Caller-set Seq/At are overwritten by the ring.
	r.Emit(Event{Cat: CatConn, Name: "stamped", Seq: 999, At: time.Hour})
	last := r.Events()[2]
	if last.Seq != 3 || last.At >= time.Hour {
		t.Fatalf("ring did not stamp: %+v", last)
	}
}

func TestRingWrapsKeepingNewest(t *testing.T) {
	r := NewRing(4, fixedClock())
	for i := 0; i < 10; i++ {
		r.Emit(Event{Cat: CatBlock, Name: "e", V1: int64(i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d", len(evs))
	}
	for i, e := range evs {
		if e.V1 != int64(6+i) {
			t.Fatalf("evs[%d] = %+v, want v1=%d", i, e, 6+i)
		}
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d", r.Total())
	}
	// Chronological ordering preserved across the wrap.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("sequence broken: %+v", evs)
		}
	}
}

func TestNilRingIsSafe(t *testing.T) {
	var r *Ring
	r.Emit(Event{Cat: CatError, Name: "into the void"})
	r.EmitErr(CatError, "still void", errors.New("x"))
	if r.Events() != nil || r.Total() != 0 {
		t.Fatal("nil ring not inert")
	}
}

type loudError struct{ called *bool }

func (e loudError) Error() string { *e.called = true; return "loud" }

func TestEmitErr(t *testing.T) {
	var called bool
	var nilRing *Ring
	nilRing.EmitErr(CatError, "fail", loudError{&called})
	if called {
		t.Fatal("EmitErr formatted the error on a nil ring")
	}
	r := NewRing(4, fixedClock())
	r.EmitErr(CatError, "fail", loudError{&called})
	if !called {
		t.Fatal("EmitErr did not capture the error")
	}
	evs := r.Events()
	if len(evs) != 1 || evs[0].Text != "loud" || evs[0].Name != "fail" {
		t.Fatalf("EmitErr event: %+v", evs)
	}
	r.EmitErr(CatConn, "no-err", nil)
	if got := r.Events()[1]; got.Text != "" {
		t.Fatalf("nil error produced text: %+v", got)
	}
}

func TestRenderAndFilter(t *testing.T) {
	r := NewRing(16, fixedClock())
	r.Emit(Event{Cat: CatNego, Name: "start"})
	r.Emit(Event{Cat: CatError, Name: "write_failed", Block: 7, Text: "bad thing"})
	r.Emit(Event{Cat: CatBlock, Name: "posted", Session: 1, Block: 3, Channel: 2, V1: 4096})
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"[nego] start",
		`[error] write_failed blk=7 "bad thing"`,
		"[block] posted sess=1 blk=3 ch=2 v1=4096",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	errs := r.Filter(CatError)
	if len(errs) != 1 || errs[0].Text != "bad thing" {
		t.Fatalf("filter: %+v", errs)
	}
	if got := r.Find("posted"); len(got) != 1 || got[0].Block != 3 {
		t.Fatalf("find: %+v", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	r := NewRing(0, nil)
	r.Emit(Event{Cat: CatConn, Name: "x"})
	if len(r.Events()) != 1 {
		t.Fatal("default ring broken")
	}
	if r.Events()[0].At < 0 {
		t.Fatal("default clock negative")
	}
}

func TestCategoryStrings(t *testing.T) {
	for c, want := range map[Category]string{
		CatNego: "nego", CatSession: "session", CatBlock: "block",
		CatCredit: "credit", CatError: "error", CatConn: "conn",
	} {
		if c.String() != want {
			t.Errorf("%d = %q", c, c.String())
		}
	}
	if Category(99).String() == "" {
		t.Error("unknown category empty")
	}
}

func TestCategoryTextRoundTrip(t *testing.T) {
	for _, c := range []Category{CatNego, CatSession, CatBlock, CatCredit, CatError, CatConn, Category(42)} {
		b, err := c.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Category
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("%q: %v", b, err)
		}
		if back != c {
			t.Fatalf("round trip %v -> %q -> %v", c, b, back)
		}
	}
	var c Category
	if err := c.UnmarshalText([]byte("nonsense")); err == nil {
		t.Fatal("bad category accepted")
	}
}

func TestConcurrentEmit(t *testing.T) {
	r := NewRing(64, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(Event{Cat: CatBlock, Name: "g"})
			}
		}()
	}
	wg.Wait()
	if r.Total() != 800 {
		t.Fatalf("total = %d", r.Total())
	}
	if len(r.Events()) != 64 {
		t.Fatalf("retained = %d", len(r.Events()))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := NewRing(16, fixedClock())
	r.Emit(Event{Cat: CatNego, Name: "nego_start", Text: "peer=10.0.0.1"})
	r.Emit(Event{Cat: CatBlock, Name: "posted", Session: 3, Block: 17, Channel: 1, V1: 1 << 20, V2: -5})
	r.Emit(Event{Cat: CatCredit, Name: "grant", Session: 3, V1: 64})
	r.Emit(Event{Cat: CatError, Name: "write_failed", Text: `quote " and 日本語`})

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Fatalf("JSONL lines = %d, want 4", lines)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := r.Events()
	if len(back) != len(orig) {
		t.Fatalf("round trip: %d events, want %d", len(back), len(orig))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Fatalf("event %d changed:\n  sent %+v\n  got  %+v", i, orig[i], back[i])
		}
	}
}

func TestReadJSONLTolerance(t *testing.T) {
	in := "\n" + `{"seq":1,"at":1000,"cat":"block","name":"a"}` + "\n\n" + `{"seq":2,"at":2000,"cat":"credit","name":"b"}` + "\n"
	evs, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Name != "a" || evs[1].Cat != CatCredit {
		t.Fatalf("events: %+v", evs)
	}
	if _, err := ReadJSONL(strings.NewReader("{broken\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
}

// BenchmarkRingEmitDisabled proves the satellite claim: with tracing
// disabled (nil ring) an emit is one branch — no formatting, zero
// allocations.
func BenchmarkRingEmitDisabled(b *testing.B) {
	var r *Ring
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(Event{Cat: CatBlock, Name: "posted", Session: 1, Block: uint32(i), Channel: 2, V1: 4096})
	}
}

func BenchmarkRingEmitEnabled(b *testing.B) {
	r := NewRing(1024, func() time.Duration { return 0 })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(Event{Cat: CatBlock, Name: "posted", Session: 1, Block: uint32(i), Channel: 2, V1: 4096})
	}
}

// The old API formatted on every call; this measures what a disabled
// stringly emit would have cost for comparison in the PR description.
func BenchmarkStringlyEmitDisabled(b *testing.B) {
	emit := func(r *Ring, cat Category, format string, args ...any) {
		if r == nil {
			return
		}
		r.Emit(Event{Cat: cat, Text: fmt.Sprintf(format, args...)})
	}
	var r *Ring
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		emit(r, CatBlock, "posted block sess=%d blk=%d ch=%d len=%d", 1, i, 2, 4096)
	}
}

func TestEmitDisabledDoesNotAllocate(t *testing.T) {
	var r *Ring
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(Event{Cat: CatBlock, Name: "posted", Session: 1, Block: 9, Channel: 2, V1: 4096})
	})
	if allocs != 0 {
		t.Fatalf("disabled emit allocates %v per op", allocs)
	}
}
