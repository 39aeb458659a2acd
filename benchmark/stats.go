package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between the two nearest ranks. sorted must be ascending
// and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// summary is a metric as the benchmark reports it: the median of its
// samples with the quartiles and the sample count beside it.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	// Absent marks a per-layer metric whose instrument was missing from
	// the snapshot (or whose layer the workload never enters); Value is
	// 0 then.
	Absent bool `json:"absent,omitempty"`
}

// summarize reduces samples to median and quartiles. No samples yields
// an absent metric.
func summarize(unit string, samples []float64) summary {
	if len(samples) == 0 {
		return summary{Unit: unit, Absent: true}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return summary{
		Value: quantile(s, 0.5),
		Unit:  unit,
		Q1:    quantile(s, 0.25),
		Q3:    quantile(s, 0.75),
		N:     len(s),
	}
}

// single wraps one measured value as a one-sample summary.
func single(unit string, v float64) summary {
	return summary{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// percentile returns the p-th percentile (0..100) of unsorted samples,
// 0 when there are none.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, p/100)
}
