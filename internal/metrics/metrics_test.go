package metrics

import (
	"testing"

	"helcfl/internal/fl"
)

func mkCurve(pts ...Point) Curve {
	return Curve{Points: pts}
}

func TestCurveFromRecordsFiltersEvaluated(t *testing.T) {
	recs := []fl.RoundRecord{
		{Round: 0, CumTime: 1, CumEnergy: 2, Evaluated: true, TestAccuracy: 0.3},
		{Round: 1, CumTime: 2, CumEnergy: 4},
		{Round: 2, CumTime: 3, CumEnergy: 6, Evaluated: true, TestAccuracy: 0.5},
	}
	c := CurveFromRecords(recs)
	if len(c.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(c.Points))
	}
	if c.Points[1].Round != 2 || c.Points[1].Energy != 6 || c.Points[1].Accuracy != 0.5 {
		t.Fatalf("point = %+v", c.Points[1])
	}
}

func TestBestAndFinal(t *testing.T) {
	c := mkCurve(
		Point{Round: 0, Accuracy: 0.4},
		Point{Round: 1, Accuracy: 0.7},
		Point{Round: 2, Accuracy: 0.6},
	)
	if c.Best() != 0.7 {
		t.Fatalf("Best = %g", c.Best())
	}
	if c.Final() != 0.6 {
		t.Fatalf("Final = %g", c.Final())
	}
	empty := mkCurve()
	if empty.Best() != 0 || empty.Final() != 0 {
		t.Fatal("empty curve must report zeros")
	}
}

func TestTimeToAccuracy(t *testing.T) {
	c := mkCurve(
		Point{Round: 0, Time: 10, Accuracy: 0.3},
		Point{Round: 5, Time: 60, Accuracy: 0.55},
		Point{Round: 9, Time: 100, Accuracy: 0.8},
	)
	if s, ok := c.TimeToAccuracy(0.5); !ok || s != 60 {
		t.Fatalf("TTA(0.5) = %g, %v", s, ok)
	}
	if s, ok := c.TimeToAccuracy(0.8); !ok || s != 100 {
		t.Fatalf("TTA(0.8) = %g, %v", s, ok)
	}
	if _, ok := c.TimeToAccuracy(0.9); ok {
		t.Fatal("unreachable target must report ok=false")
	}
}

func TestEnergyAndRoundsToAccuracy(t *testing.T) {
	c := mkCurve(
		Point{Round: 2, Time: 10, Energy: 5, Accuracy: 0.4},
		Point{Round: 4, Time: 20, Energy: 11, Accuracy: 0.6},
	)
	if e, ok := c.EnergyToAccuracy(0.6); !ok || e != 11 {
		t.Fatalf("ETA = %g, %v", e, ok)
	}
	if r, ok := c.RoundsToAccuracy(0.4); !ok || r != 2 {
		t.Fatalf("RTA = %d, %v", r, ok)
	}
	if r, ok := c.RoundsToAccuracy(0.99); ok || r != -1 {
		t.Fatal("unreachable rounds must report -1,false")
	}
}

func TestFormatDelay(t *testing.T) {
	if got := FormatDelay(409.2, true); got != "6.82min" {
		t.Fatalf("FormatDelay = %q", got)
	}
	if got := FormatDelay(0, false); got != "✗" {
		t.Fatalf("FormatDelay(miss) = %q", got)
	}
}

func TestFormatPercent(t *testing.T) {
	if got := FormatPercent(0.4345); got != "43.45%" {
		t.Fatalf("FormatPercent = %q", got)
	}
}
