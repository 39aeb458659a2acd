package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rftp/internal/wire"
)

// testOptions keeps a run short: two set-ups, the fewest segments, a
// layers stage cut by 2000.
func testOptions(t *testing.T) options {
	opt := defaultOptions()
	opt.seconds = 0.001
	opt.outDir = t.TempDir()
	opt.setupReps, opt.setupTime = 2, 0
	opt.layerDiv = 2000
	return opt
}

// small cuts a workload's segments to about 4 MiB.
func small(w workload) workload {
	if w.segSessions > 1 {
		w.segSessions = 128
	} else {
		w.segBlocks = max(4*mib/int64(w.blockSize), 4)
	}
	return w
}

// contract is the part of BENCHMARK.json the tests hold the program to.
type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func names(m map[string]summary) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestContractMatchesProgram: BENCHMARK.json and the program name the
// same workloads and metrics with the same units, directions and
// bounds.
func TestContractMatchesProgram(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := c.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != better(d.higher) || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	defs := perLayer()
	if len(c.PerLayer) != len(defs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(c.PerLayer), len(defs))
	}
	for i, d := range defs {
		got := c.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != better(d.higher) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs each workload at about 4 MiB per
// segment, untraced and traced, and checks that exactly the metrics of
// the contract come out and that every byte was verified.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			opt := testOptions(t)
			res, err := measure(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd, false)
			res, err = measureTraced(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer(), true)
			if w.fabric != fabSim {
				if st, err := os.Stat(tracePath(opt.outDir, w.name)); err != nil || st.Size() == 0 {
					t.Errorf("traced run left no trace file: %v", err)
				}
			}
			if left, _ := filepath.Glob(filepath.Join(tmpDir(opt.outDir), "*")); len(left) != 0 {
				t.Errorf("temporary files left behind: %v", left)
			}
		})
	}
}

func checkMetrics(t *testing.T, res *result, defs []metricDef, mayBeAbsent bool) {
	t.Helper()
	if !res.correct() {
		t.Errorf("%s: attempted %d, failed %d: %v", res.Workload, res.Attempted, res.Failed, res.Notes)
	}
	var want []string
	for _, d := range defs {
		want = append(want, d.name)
		s, ok := res.Metrics[d.name]
		switch {
		case !ok:
			continue // reported below
		case s.Absent && !mayBeAbsent:
			t.Errorf("%s: metric %s is absent", res.Workload, d.name)
		case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
			t.Errorf("%s: metric %s = %v", res.Workload, d.name, s.Value)
		case !mayBeAbsent && s.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", res.Workload, d.name, s.Value)
		}
	}
	sort.Strings(want)
	if got := names(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s emitted\n  %v\nwant\n  %v", res.Workload, got, want)
	}
}

// corruptSink hands the nth block it is given to corrupt instead of
// straight to the harness sink.
type corruptSink struct {
	inner   blockSink
	n       int
	corrupt func(inner blockSink, hdr wire.BlockHeader, data []byte, modelLen int, done func(error))
}

func (c *corruptSink) Store(hdr wire.BlockHeader, data []byte, modelLen int, done func(error)) {
	if c.n--; c.n == 0 {
		c.corrupt(c.inner, hdr, data, modelLen, done)
		return
	}
	c.inner.Store(hdr, data, modelLen, done)
}

// TestCorruptionIsCounted: a sink that sees one flipped byte, and one
// that never sees one of the blocks, both end with failed operations.
func TestCorruptionIsCounted(t *testing.T) {
	w, _ := findWorkload("chan_small_8k")
	w = small(w)
	cases := map[string]func(blockSink, wire.BlockHeader, []byte, int, func(error)){
		"flipped byte": func(inner blockSink, hdr wire.BlockHeader, data []byte, modelLen int, done func(error)) {
			bad := append([]byte(nil), data...)
			bad[len(bad)-1] ^= 0x01
			inner.Store(hdr, bad, modelLen, done)
		},
		"dropped block": func(_ blockSink, _ wire.BlockHeader, _ []byte, _ int, done func(error)) {
			done(nil)
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			opt := testOptions(t)
			opt.wrapSink = func(inner blockSink) blockSink { return &corruptSink{inner: inner, n: 3, corrupt: corrupt} }
			res, err := measure(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.correct() {
				t.Errorf("ops_failed = %d, correct = %v; want failures", res.Failed, res.correct())
			}
		})
	}
}

func TestQuantiles(t *testing.T) {
	s := summarize("x", []float64{5, 1, 4, 2, 3})
	if s.Value != 3 || s.Q1 != 2 || s.Q3 != 4 || s.N != 5 {
		t.Errorf("summarize(1..5) = %+v, want median 3, quartiles 2 and 4, n 5", s)
	}
	if s := summarize("x", []float64{1, 2, 3, 4}); s.Value != 2.5 || s.Q1 != 1.75 || s.Q3 != 3.25 {
		t.Errorf("summarize(1..4) = %+v, want 2.5, 1.75, 3.25", s)
	}
	if s := summarize("x", nil); !s.Absent {
		t.Errorf("summarize(nil) = %+v, want absent", s)
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if p := percentile(hundred, 99); math.Abs(p-99.01) > 1e-9 {
		t.Errorf("p99 of 1..100 = %v, want 99.01", p)
	}
	if p := percentile([]float64{7}, 99); p != 7 {
		t.Errorf("p99 of one sample = %v, want 7", p)
	}
	for n, want := range map[int]float64{7: 50, 19: 50, 20: 50, 100: 90, 1000: 99, 300000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSpanTiling(t *testing.T) {
	tr := newTracer()
	tr.session(sessionSpan{sess: 1, call: 5, srcDone: 90})
	tr.session(sessionSpan{sess: 1, sinkDone: 85})
	tr.load(1, 0, 10, 20)
	tr.load(1, 100, 21, 30)
	tr.store(1, 100, 50, 60) // out of order on purpose
	tr.store(1, 0, 40, 80)
	blocks, sessions, err := tr.join()
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 || len(sessions) != 1 || sessions[0] != (sessionSpan{1, 5, 90, 85}) {
		t.Fatalf("join = %+v, %+v", blocks, sessions)
	}
	for _, b := range blocks {
		if !b.tiles() {
			t.Errorf("spans of %+v do not tile", b)
		}
	}
	st := analyze(blocks, sessions)
	if st.meanResidenceNs != (70+39)/2.0 || st.transitUs[0] != 0.02 || st.loadGapUs[0] != 0.001 ||
		st.sessionOpenUs[0] != 0.005 || st.sessionCloseUs[0] != 0.01 {
		t.Errorf("analyze = %+v", st)
	}
	if (blockSpans{loadStart: 10, loadEnd: 20, storeStart: 15, storeEnd: 30}).tiles() {
		t.Error("a store that starts before its load ended tiles")
	}
	tr.store(2, 0, 1, 2)
	if _, _, err := tr.join(); err == nil {
		t.Error("a store without a load joined")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, goodput ...float64) string {
		path := filepath.Join(dir, name)
		for i, g := range goodput {
			res := &result{Workload: "loop_bulk_1m", Seed: int64(i), Attempted: 1,
				Metrics: map[string]summary{"goodput_gbps": single("Gbit/s", g)}}
			if err := appendJSON(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a", 20, 20.2, 19.9, 20.1, 20)
	var out bytes.Buffer
	if err := compareFiles(&out, base, write("same", 19.8, 20.3, 20, 20.1, 19.9)); err != nil {
		t.Errorf("an A/A comparison failed: %v\n%s", err, &out)
	}
	out.Reset()
	if err := compareFiles(&out, base, write("slow", 14, 14.2, 14.1, 13.9, 14)); err == nil || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("a 30%% drop in goodput passed: %v\n%s", err, &out)
	}
	out.Reset()
	if err := compareFiles(&out, base, write("noisy", 12, 25, 20, 28, 16)); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a noisy B was not reported unresolved: %v\n%s", err, &out)
	}
}
