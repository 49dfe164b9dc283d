// Package harness holds the measurement arithmetic of the benchmark: order
// statistics, span self-time, the byte-counting HTTP transport, process
// counters, and the report format. Nothing here knows about a workload.
package harness

import (
	"math"
	"sort"
)

// Sorted returns an ascending copy of values.
func Sorted(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

// Median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty input.
func Median(values []float64) float64 {
	s := Sorted(values)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the default "exclusive"
// method), which is the statistic the acceptance rule for this benchmark is
// written in. Fewer than two values have no spread: all three are the value.
func Quartiles(values []float64) (q1, q2, q3 float64) {
	s := Sorted(values)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the interquartile range as a share of the median — how far a
// metric wanders between runs of the same code. It is 0 when the median is.
func Spread(values []float64) float64 {
	q1, q2, q3 := Quartiles(values)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice; 0 for an empty one.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// p·n first, and a hair of slack, so that p99 of 1000 samples is rank 990
	// whatever 0.99 rounds to in binary.
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailLadder lists the tail percentiles a timing may be reported at, highest
// first, each with the share of samples beyond it in thousandths.
var tailLadder = []struct {
	p              float64
	beyondPerMille int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// TailPercentile picks the highest percentile of the ladder that still has at
// least ten samples beyond it among n — a p99 over 200 samples rests on two
// of them and is not worth printing. ok is false when even p75 is too thin.
func TailPercentile(n int) (p float64, ok bool) {
	for _, t := range tailLadder {
		if n*t.beyondPerMille >= 10*1000 {
			return t.p, true
		}
	}
	return 0, false
}

// Summary is how a timing is reported: its median, the highest trustworthy
// tail percentile, and the sample count both rest on.
type Summary struct {
	Count int
	P50   float64
	// TailP is the percentile Tail was taken at; 0 when the sample is too
	// small for any.
	TailP, Tail float64
}

// Summarize reduces samples to a Summary.
func Summarize(samples []float64) Summary {
	s := Sorted(samples)
	out := Summary{Count: len(s), P50: Percentile(s, 50)}
	if p, ok := TailPercentile(len(s)); ok {
		out.TailP, out.Tail = p, Percentile(s, p)
	}
	return out
}
