package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// loadRuns reads a file of result lines (what -json appends) and groups
// the untraced runs' end-to-end values by workload and metric.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if res.Traced {
			continue
		}
		if res.Failed != 0 {
			return nil, fmt.Errorf("%s:%d: %s seed %d has ops_failed = %d", path, line, res.Workload, res.Seed, res.Failed)
		}
		byMetric := runs[res.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			runs[res.Workload] = byMetric
		}
		for name, s := range res.Metrics {
			byMetric[name] = append(byMetric[name], s.Value)
		}
	}
	return runs, sc.Err()
}

// verdict compares one metric's runs on two revisions. worse is how far
// b's median is on the wrong side of a's, as a share of a's median.
type verdict struct {
	a, b   summary
	worse  float64
	status string // "ok", "unresolved" or "BREACH"
}

func judge(d metricDef, a, b []float64) verdict {
	v := verdict{a: summarize(d.unit, a), b: summarize(d.unit, b)}
	v.worse = (v.b.Value - v.a.Value) / v.a.Value
	if d.higher {
		v.worse = -v.worse
	}
	// The spread between one revision's own runs, as a share of its
	// median: a difference smaller than this is not resolved.
	spread := 0.0
	for _, s := range []summary{v.a, v.b} {
		if s.Value != 0 {
			spread = max(spread, (s.Q3-s.Q1)/s.Value)
		}
	}
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	everyRunBetter := sb[len(sb)-1] < sa[0]
	if d.higher {
		everyRunBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case v.worse > d.bound:
		v.status = "BREACH"
	case spread > d.bound && !everyRunBetter:
		v.status = "unresolved"
	default:
		v.status = "ok"
	}
	return v
}

// compareFiles prints, for every workload and end-to-end metric present
// in both files, the two medians, the relative difference and the bound,
// and returns an error if any metric worsened by more than its bound.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "A = %s, B = %s; 'worse' is B against A in the metric's bad direction\n", pathA, pathB)
	fmt.Fprintf(out, "%-18s %-20s %4s %14s %4s %14s %8s %6s  %s\n", "workload", "metric", "nA", "median A", "nB", "median B", "worse", "bound", "")
	breaches, compared := 0, 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a[w.name][d.name], b[w.name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			compared++
			v := judge(d, va, vb)
			if v.status == "BREACH" {
				breaches++
			}
			fmt.Fprintf(out, "%-18s %-20s %4d %14.4f %4d %14.4f %+7.2f%% %5.0f%%  %s\n",
				w.name, d.name, v.a.N, v.a.Value, v.b.N, v.b.Value, 100*v.worse, 100*d.bound, v.status)
		}
	}
	if compared == 0 {
		return fmt.Errorf("no workload has untraced runs in both %s and %s", pathA, pathB)
	}
	if breaches > 0 {
		return fmt.Errorf("%d of %d comparisons worsened by more than the bound", breaches, compared)
	}
	return nil
}
