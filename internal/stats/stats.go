// Package stats provides the summary statistics and multi-seed aggregation
// used to report experiment robustness: single-seed curves are what the
// paper plots, but claims about orderings deserve mean ± deviation across
// seeds.
package stats

import (
	"fmt"
	"math"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	N                   int
	Mean, Std, Min, Max float64
}

// Summarize computes a Summary. Std is the sample standard deviation
// (n−1 denominator); it is 0 for fewer than two observations.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// String renders "mean ± std [min, max] (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g [%.4g, %.4g] (n=%d)", s.Mean, s.Std, s.Min, s.Max, s.N)
}

// JainIndex returns Jain's fairness index (Σx)² / (n·Σx²) of a
// non-negative allocation: 1 for perfectly uniform, 1/n when one element
// takes everything. Used to quantify how evenly a selection policy spreads
// participation (and therefore energy drain) across the fleet.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		if x < 0 {
			panic(fmt.Sprintf("stats: Jain index of negative allocation %g", x))
		}
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1 // nobody allocated anything: trivially fair
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// WinRate returns the fraction of paired observations where a[i] beats
// b[i] according to `lowerWins` (true: smaller value wins, e.g. delay;
// false: larger value wins, e.g. accuracy). Ties count half.
func WinRate(a, b []float64, lowerWins bool) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: win rate over mismatched samples %d vs %d", len(a), len(b)))
	}
	if len(a) == 0 {
		return 0
	}
	wins := 0.0
	for i := range a {
		switch {
		case a[i] == b[i]: //helcfl:allow(floatcompare) exact ties score half a win by definition
			wins += 0.5
		case (a[i] < b[i]) == lowerWins:
			wins++
		}
	}
	return wins / float64(len(a))
}
