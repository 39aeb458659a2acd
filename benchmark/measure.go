package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"time"
)

// minSegments is the fewest timed segments a run takes however short
// -seconds is.
const minSegments = 3

// maxSetupReps caps the set-ups of a run; see options.setupTime.
const maxSetupReps = 200

// metricDef names one metric of the contract in BENCHMARK.json.
type metricDef struct {
	name, unit string
	higher     bool    // direction: higher is better
	bound      float64 // share of the parent's median it may worsen by (end-to-end only)
}

// endToEnd lists the end-to-end metrics in report order. Every workload
// reports every one of them; what a "session" and a "block" are on each
// workload is in the README.
var endToEnd = []metricDef{
	{"goodput_gbps", "Gbit/s", true, 0.25},
	{"cpu_s_per_gib", "s/GiB", false, 0.25},
	{"allocs_per_block", "count", false, 0.03},
	{"copied_b_per_block", "B", false, 0.03},
	{"blocks_per_s", "1/s", true, 0.25},
	{"sessions_per_s", "1/s", true, 0.25},
	{"session_ms_p50", "ms", false, 0.25},
	{"session_ms_p99", "ms", false, 0.25},
	{"peak_rss_mib", "MiB", false, 0.10},
	{"setup_s", "s", false, 0.25},
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Attempted int64              `json:"ops_attempted"`
	Failed    int64              `json:"ops_failed"`
	Retries   int64              `json:"retries"`
	StartupS  float64            `json:"startup_s"` // process start to first timed segment
	Metrics   map[string]summary `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
	Env       environment        `json:"env"`
}

func (res *result) correct() bool { return res.Failed == 0 && res.Attempted > 0 }

// tailPercentile is the highest percentile, up to p99, that still has
// ten samples beyond it; with fewer than twenty samples it is the
// median.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return math.Min(99, 100*float64(n-10)/float64(n))
}

// timedSegments opens a connection, warms it up and runs timed
// segments for the given time.
func timedSegments(r *runner, traced bool, d time.Duration) (setup time.Duration, segs []segment, err error) {
	defer func() { r.recordLat = false }()
	if setup, err = r.open(traced); err != nil {
		return 0, nil, fmt.Errorf("set-up: %w", err)
	}
	if _, err := r.segment(); err != nil {
		return 0, nil, fmt.Errorf("warm-up segment: %w", err)
	}
	r.recordLat = true
	r.firstTimed = time.Since(processStart)
	deadline := time.Now().Add(d)
	for len(segs) < minSegments || time.Now().Before(deadline) {
		// A collection between segments, outside the timed region: with
		// a large live heap (the 1 MiB pools) the collector would not
		// run once in a whole run otherwise, and peak RSS would grow
		// with the run's length. A segment that allocates enough to
		// trigger the collector still pays for it inside the segment.
		runtime.GC()
		seg, err := r.segment()
		if err != nil {
			return 0, nil, fmt.Errorf("timed segment %d: %w", len(segs)+1, err)
		}
		segs = append(segs, seg)
	}
	return setup, segs, nil
}

// perSegment summarizes f over the segments.
func perSegment(unit string, segs []segment, f func(segment) float64) summary {
	vals := make([]float64, len(segs))
	for i, s := range segs {
		vals[i] = f(s)
	}
	return summarize(unit, vals)
}

// closeOut checks the measured connection's own ledger, which must be
// still open: the source's block count equals the sink's. It returns
// the source's retries.
func closeOut(r *runner) (retries int64) {
	if r.st == nil {
		return 0
	}
	src, snk := r.st.stats()
	if src.blocks != snk.blocks {
		r.pay.fail("source Stats.Blocks = %d, sink stored %d", src.blocks, snk.blocks)
	}
	return src.retries
}

// tally copies the runner's operation counts into the result.
func (res *result) tally(r *runner) {
	res.Attempted, res.Failed = r.attempted, r.pay.failed.Load()
	res.Notes = append(res.Notes, r.pay.notes...)
}

// measure runs the untraced pass: every end-to-end metric.
func measure(w workload, opt options) (*result, error) {
	r, err := newRunner(w, opt)
	if err != nil {
		return nil, err
	}
	defer r.cleanup()
	setup, segs, err := timedSegments(r, false, time.Duration(opt.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	// Peak RSS is read while the process has built one connection only;
	// the further set-ups that steady the set-up median come after.
	rss, retries := peakRSSMiB(), closeOut(r)
	setups := []float64{setup.Seconds()}
	for start := time.Now(); len(setups) < opt.setupReps ||
		(time.Since(start) < opt.setupTime && len(setups) < maxSetupReps); {
		took, err := r.open(false)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(setups)+1, err)
		}
		setups = append(setups, took.Seconds())
	}
	res := &result{Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Retries: retries,
		Env: readEnvironment(), Metrics: make(map[string]summary)}
	res.StartupS = r.firstTimed.Seconds()
	m := res.Metrics
	m["goodput_gbps"] = perSegment("Gbit/s", segs, func(s segment) float64 { return float64(s.bytes) * 8 / s.wall.Seconds() / 1e9 })
	m["cpu_s_per_gib"] = perSegment("s/GiB", segs, func(s segment) float64 { return s.cpu.Seconds() / (float64(s.bytes) / gib) })
	m["allocs_per_block"] = perSegment("count", segs, func(s segment) float64 { return float64(s.mallocs) / float64(s.blocks) })
	m["copied_b_per_block"] = perSegment("B", segs, func(s segment) float64 { return float64(s.copied) / float64(s.blocks) })
	m["blocks_per_s"] = perSegment("1/s", segs, func(s segment) float64 { return float64(s.blocks) / s.wall.Seconds() })
	m["sessions_per_s"] = perSegment("1/s", segs, func(s segment) float64 { return float64(s.sessions) / s.wall.Seconds() })
	lat := r.latMs
	if w.fabric == fabSim { // one modeled transfer is one session
		for _, s := range segs {
			lat = append(lat, float64(s.wall)/float64(time.Millisecond))
		}
	}
	p50, tail := summarize("ms", lat), summarize("ms", lat)
	tail.Value = percentile(lat, tailPercentile(len(lat)))
	m["session_ms_p50"], m["session_ms_p99"] = p50, tail
	m["peak_rss_mib"] = single("MiB", rss)
	m["setup_s"] = summarize("s", setups)
	res.tally(r)
	return res, nil
}

// printResult writes the human-readable report of a run.
func printResult(out io.Writer, res *result, defs []metricDef) {
	fmt.Fprintf(out, "workload %s  seed %d  traced %v  (%s)\n", res.Workload, res.Seed, res.Traced, res.Env)
	fmt.Fprintln(out, "  all traffic stays on this host: netfabric runs over the loopback interface, no real link is crossed")
	for _, d := range defs {
		s, ok := res.Metrics[d.name]
		switch {
		case !ok || s.Absent:
			fmt.Fprintf(out, "  %-40s absent\n", d.name)
		case s.N > 1:
			fmt.Fprintf(out, "  %-40s %14.4f %-7s  q1 %.4f  q3 %.4f  n %d\n", d.name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
		default:
			fmt.Fprintf(out, "  %-40s %14.4f %s\n", d.name, s.Value, s.Unit)
		}
	}
	fmt.Fprintf(out, "  ops_attempted %d  ops_failed %d  retries %d  startup_s %.3f\n", res.Attempted, res.Failed, res.Retries, res.StartupS)
	for _, n := range res.Notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
}

// tracePath is where a traced run leaves its harness spans.
func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".jsonl")
}
