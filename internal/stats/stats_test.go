package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary = %+v", s)
	}
	// Sample std of this classic set is sqrt(32/7).
	if math.Abs(s.Std-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("std = %g", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %g/%g", s.Min, s.Max)
	}
}

func TestSummarizeDegenerate(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.Std != 0 || s.Min != 3 || s.Max != 3 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	out := Summarize([]float64{1, 2, 3}).String()
	if !strings.Contains(out, "n=3") || !strings.Contains(out, "±") {
		t.Fatalf("String = %q", out)
	}
}

func TestWinRate(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 2, 2}
	if got := WinRate(a, b, true); math.Abs(got-0.5) > 1e-12 { // win, tie, loss
		t.Fatalf("lower-wins rate = %g", got)
	}
	if got := WinRate(a, b, false); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("higher-wins rate = %g", got)
	}
	if WinRate(nil, nil, true) != 0 {
		t.Fatal("empty win rate must be 0")
	}
}

func TestWinRateMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WinRate([]float64{1}, []float64{1, 2}, true)
}

// Property: mean lies within [min, max]; std is non-negative.
func TestSummaryInvariantsQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%30 + 1
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 && s.Std >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
