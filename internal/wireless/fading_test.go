package wireless

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBlockFadingDeterministic(t *testing.T) {
	f := NewBlockFading(0.5, 42)
	a := f.Gain(3, 9, 1.0)
	b := f.Gain(3, 9, 1.0)
	if a != b {
		t.Fatal("same (round,user) must give same gain")
	}
	if f.Gain(4, 9, 1.0) == a && f.Gain(3, 10, 1.0) == a {
		t.Fatal("different blocks should decorrelate")
	}
	g2 := NewBlockFading(0.5, 43)
	if g2.Gain(3, 9, 1.0) == a {
		t.Fatal("different seeds should differ")
	}
}

func TestBlockFadingZeroSigma(t *testing.T) {
	f := NewBlockFading(0, 1)
	if f.Gain(1, 2, 0.7) != 0.7 {
		t.Fatal("σ=0 must be static")
	}
}

func TestBlockFadingNegativeSigmaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBlockFading(-1, 1)
}

func TestBlockFadingUnitMeanAndPositive(t *testing.T) {
	f := NewBlockFading(0.5, 7)
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		g := f.Gain(i, 0, 1.0)
		if g <= 0 {
			t.Fatalf("gain %g must be positive", g)
		}
		sum += g
	}
	mean := sum / float64(n)
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("fading factor mean %g, want ≈1", mean)
	}
}

// Property: larger σ produces more dispersion.
func TestBlockFadingDispersionGrowsQuick(t *testing.T) {
	spread := func(sigma float64) float64 {
		f := NewBlockFading(sigma, 11)
		s, ss := 0.0, 0.0
		n := 2000
		for i := 0; i < n; i++ {
			g := f.Gain(i, 1, 1.0)
			s += g
			ss += g * g
		}
		mean := s / float64(n)
		return ss/float64(n) - mean*mean
	}
	f := func(seed int64) bool {
		return spread(0.2) < spread(0.8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
}
