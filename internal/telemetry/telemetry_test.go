package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rftp/internal/verbs"
)

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has value")
	}
	var g *Gauge
	g.Set(7)
	if g.Value() != 0 || g.Max() != 0 {
		t.Fatal("nil gauge has value")
	}
	var h *Histogram
	h.Observe(3)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 {
		t.Fatal("nil histogram counted")
	}
	if s := h.Snapshot(); s.Count != 0 || len(s.Bounds) != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", 1) != nil || r.Child("x") != nil {
		t.Fatal("nil registry returned non-nil metric")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	// Metrics obtained from a nil registry must also be usable.
	r.Counter("x").Inc()
	r.Histogram("x", 1).Observe(1)
	r.Gauge("x").Set(1)
}

func TestGaugeMax(t *testing.T) {
	g := &Gauge{}
	for _, v := range []int64{3, 9, 2, 7} {
		g.Set(v)
	}
	if g.Value() != 7 {
		t.Fatalf("value = %d, want 7", g.Value())
	}
	if g.Max() != 9 {
		t.Fatalf("max = %d, want 9", g.Max())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram(10, 20, 50)
	// Boundary semantics: bucket i counts v <= bounds[i].
	for _, v := range []int64{-1, 0, 10} { // all land in bucket 0
		h.Observe(v)
	}
	h.Observe(11) // bucket 1
	h.Observe(20) // bucket 1
	h.Observe(50) // bucket 2
	h.Observe(51) // overflow
	h.Observe(1 << 40)

	s := h.Snapshot()
	want := []int64{3, 2, 1, 2}
	if len(s.Counts) != len(want) {
		t.Fatalf("counts len = %d, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]int64{{}, {5, 5}, {10, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(10, 100)
	b := NewHistogram(10, 100)
	a.Observe(5)
	a.Observe(50)
	b.Observe(50)
	b.Observe(5000)

	m, err := a.Snapshot().Merge(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 4 || m.Sum != 5105 {
		t.Fatalf("merged count=%d sum=%d", m.Count, m.Sum)
	}
	for i, w := range []int64{1, 2, 1} {
		if m.Counts[i] != w {
			t.Fatalf("merged bucket %d = %d, want %d", i, m.Counts[i], w)
		}
	}

	// Merging with an empty snapshot keeps the populated side.
	m2, err := a.Snapshot().Merge(HistogramSnapshot{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Count != 2 {
		t.Fatalf("merge with empty lost data: %+v", m2)
	}
	m3, err := HistogramSnapshot{}.Merge(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if m3.Count != 2 {
		t.Fatalf("empty merge lost data: %+v", m3)
	}

	// Mismatched bounds must error.
	c := NewHistogram(10, 99)
	if _, err := a.Snapshot().Merge(c.Snapshot()); err == nil {
		t.Fatal("merge of mismatched bounds succeeded")
	}
	d := NewHistogram(10)
	if _, err := a.Snapshot().Merge(d.Snapshot()); err == nil {
		t.Fatal("merge of different bucket counts succeeded")
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	h := NewHistogram(10, 20, 30, 40)
	for v := int64(1); v <= 40; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Mean(); got != 20.5 {
		t.Fatalf("mean = %v, want 20.5", got)
	}
	p50 := s.Quantile(0.50)
	if p50 < 15 || p50 > 25 {
		t.Fatalf("p50 = %d, want ~20", p50)
	}
	p95 := s.Quantile(0.95)
	if p95 < 30 || p95 > 40 {
		t.Fatalf("p95 = %d, want ~38", p95)
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty quantile not 0")
	}
}

func TestBucketHelpers(t *testing.T) {
	for _, bounds := range [][]int64{DurationBuckets(), ExpBuckets(1, 1.3, 30)} {
		if len(bounds) == 0 {
			t.Fatal("empty bounds")
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("bounds not ascending at %d: %v", i, bounds)
			}
		}
		NewHistogram(bounds...) // must not panic
	}
}

func TestRegistryCreateOrGet(t *testing.T) {
	r := NewRegistry("root")
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter not stable")
	}
	if r.Histogram("h", 1, 2) != r.Histogram("h", 9, 9, 9) {
		t.Fatal("histogram not stable")
	}
	if r.Child("c") != r.Child("c") {
		t.Fatal("child not stable")
	}
}

func TestRegistrySnapshotTree(t *testing.T) {
	r := NewRegistry("conn")
	r.Counter("blocks").Add(12)
	r.Gauge("inflight").Set(4)
	r.Histogram("lat", 10, 100).Observe(42)
	ch := r.Child("chan0")
	ch.Counter("bytes").Add(1 << 20)
	r.Child("chan1").Counter("bytes").Add(2 << 20)

	s := r.Snapshot()
	if s.Counter("blocks") != 12 {
		t.Fatalf("blocks = %d", s.Counter("blocks"))
	}
	if s.Gauges["inflight"].Value != 4 {
		t.Fatalf("gauge = %+v", s.Gauges["inflight"])
	}
	if s.Histogram("lat").Count != 1 {
		t.Fatal("histogram missing")
	}
	if len(s.Children) != 2 || s.Children[0].Name != "chan0" || s.Children[1].Name != "chan1" {
		t.Fatalf("children not sorted: %+v", s.Children)
	}
	if s.Find("chan1").Counter("bytes") != 2<<20 {
		t.Fatal("Find failed")
	}
	if s.Find("nope") != nil {
		t.Fatal("Find invented a child")
	}
	// Absent lookups are zero-valued, not panics.
	if s.Counter("nope") != 0 || s.Find("nope").Counter("x") != 0 {
		t.Fatal("absent lookups non-zero")
	}

	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"conn:", "blocks", "chan0:", "chan1:", "lat"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text missing %q:\n%s", want, text)
		}
	}

	js, err := s.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("blocks") != 12 || back.Find("chan0").Counter("bytes") != 1<<20 {
		t.Fatalf("JSON round-trip lost data: %+v", back)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry("root")
	var wg sync.WaitGroup
	const workers = 8
	const iters = 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("n").Inc()
				r.Child("c").Counter("n").Inc()
				r.Histogram("h", 10, 100, 1000).Observe(int64(i))
				r.Gauge("g").Set(int64(i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counter("n") != workers*iters {
		t.Fatalf("counter = %d, want %d", s.Counter("n"), workers*iters)
	}
	if s.Find("c").Counter("n") != workers*iters {
		t.Fatal("child counter lost increments")
	}
	if s.Histogram("h").Count != workers*iters {
		t.Fatal("histogram lost observations")
	}
}

func TestFabricMetrics(t *testing.T) {
	r := NewRegistry("fabric")
	m := NewFabricMetrics(r)
	m.Posted(verbs.OpWriteImm, 4096)
	m.Posted(verbs.OpSend, 64)
	m.Completed(verbs.OpWriteImm)
	m.Rx(4096)
	m.RNR()

	if m.TxBytes() != 4160 || m.RxBytes() != 4096 || m.RNRCount() != 1 {
		t.Fatalf("byte accounting wrong: tx=%d rx=%d rnr=%d", m.TxBytes(), m.RxBytes(), m.RNRCount())
	}
	if m.PostedCount(verbs.OpWriteImm) != 1 || m.CompletedCount(verbs.OpWriteImm) != 1 {
		t.Fatal("opcode accounting wrong")
	}
	s := r.Snapshot()
	if s.Counter("wr_posted_RDMA_WRITE_WITH_IMM") != 1 {
		t.Fatalf("registry missing opcode counter: %v", s.Counters)
	}
	if s.Counter("tx_bytes") != 4160 || s.Counter("rnr_events") != 1 {
		t.Fatalf("registry counters wrong: %v", s.Counters)
	}

	// Nil metrics are no-ops; standalone (nil registry) metrics count.
	var nilM *FabricMetrics
	nilM.Posted(verbs.OpSend, 10)
	nilM.Completed(verbs.OpSend)
	nilM.Rx(10)
	nilM.RNR()
	if nilM.TxBytes() != 0 || nilM.PostedCount(verbs.OpSend) != 0 {
		t.Fatal("nil fabric metrics counted")
	}
	solo := NewFabricMetrics(nil)
	solo.Posted(verbs.OpSend, 10)
	if solo.TxBytes() != 10 {
		t.Fatal("standalone fabric metrics dropped bytes")
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry("rftpd")
	r.Counter("sessions").Add(3)
	h := Handler(r)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if snap.Counter("sessions") != 3 {
		t.Fatalf("handler snapshot wrong: %+v", snap)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/?text=1", nil))
	if !strings.Contains(rec.Body.String(), "sessions") {
		t.Fatalf("text rendering missing counter:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 404 {
		t.Fatalf("nil registry status %d, want 404", rec.Code)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := &Counter{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkNilCounterAdd(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DurationBuckets()...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) * 100)
	}
}
