// Package metrics turns raw round records into the quantities the paper
// reports: accuracy-vs-iteration curves (Fig. 2), training delay to reach a
// desired accuracy (Table I), energy to reach a desired accuracy (Fig. 3),
// and the headline speedup/savings percentages.
package metrics

import (
	"fmt"
	"math"

	"helcfl/internal/fl"
)

// Point is one evaluated moment of a training run.
type Point struct {
	// Round is the 0-based iteration index.
	Round int
	// Time is cumulative simulated training delay in seconds.
	Time float64
	// Energy is cumulative training energy in joules.
	Energy float64
	// Accuracy is global test accuracy in [0, 1].
	Accuracy float64
}

// Curve is a training trajectory: the evaluated points of a run in round
// order.
type Curve struct {
	// Points holds the evaluated rounds in ascending order.
	Points []Point
}

// CurveFromRecords extracts the evaluated points of an FL run.
func CurveFromRecords(recs []fl.RoundRecord) Curve {
	var c Curve
	for _, r := range recs {
		if !r.Evaluated {
			continue
		}
		c.Points = append(c.Points, Point{
			Round:    r.Round,
			Time:     r.CumTime,
			Energy:   r.CumEnergy,
			Accuracy: r.TestAccuracy,
		})
	}
	return c
}

// Best returns the highest accuracy on the curve (0 for an empty curve).
func (c Curve) Best() float64 {
	best := 0.0
	for _, p := range c.Points {
		if p.Accuracy > best {
			best = p.Accuracy
		}
	}
	return best
}

// Final returns the last point's accuracy (0 for an empty curve).
func (c Curve) Final() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	return c.Points[len(c.Points)-1].Accuracy
}

// TimeToAccuracy returns the cumulative training delay at the first
// evaluated point reaching the target accuracy, and whether the target was
// reached — Table I's quantity. The ✗ entries of the paper correspond to
// ok == false.
func (c Curve) TimeToAccuracy(target float64) (seconds float64, ok bool) {
	for _, p := range c.Points {
		if p.Accuracy >= target {
			return p.Time, true
		}
	}
	return math.Inf(1), false
}

// EnergyToAccuracy returns cumulative energy at the first evaluated point
// reaching the target — Fig. 3's quantity.
func (c Curve) EnergyToAccuracy(target float64) (joules float64, ok bool) {
	for _, p := range c.Points {
		if p.Accuracy >= target {
			return p.Energy, true
		}
	}
	return math.Inf(1), false
}

// RoundsToAccuracy returns the first round index reaching the target.
func (c Curve) RoundsToAccuracy(target float64) (round int, ok bool) {
	for _, p := range c.Points {
		if p.Accuracy >= target {
			return p.Round, true
		}
	}
	return -1, false
}

// FormatDelay renders seconds the way Table I does (minutes with two
// decimals), or the paper's ✗ when unreachable.
func FormatDelay(seconds float64, ok bool) string {
	if !ok {
		return "✗"
	}
	return fmt.Sprintf("%.2fmin", seconds/60)
}

// FormatPercent renders a fraction as a percentage with two decimals.
func FormatPercent(frac float64) string { return fmt.Sprintf("%.2f%%", frac*100) }
