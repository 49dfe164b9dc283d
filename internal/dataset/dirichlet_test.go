package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPartitionDirichletValidCover(t *testing.T) {
	s := small()
	p := PartitionDirichlet(s.Train, 8, 4, 0.5, rand.New(rand.NewSource(1)))
	if err := p.Validate(s.Train.N()); err != nil {
		t.Fatal(err)
	}
	if p.TotalSamples() != s.Train.N() {
		t.Fatalf("assigned %d of %d", p.TotalSamples(), s.Train.N())
	}
}

func TestPartitionDirichletSkewGrowsWithSmallAlpha(t *testing.T) {
	s := GenerateSynth(SynthConfig{Classes: 10, C: 1, H: 4, W: 4, TrainN: 2000, TestN: 50, Noise: 0.5, Seed: 2})
	skew := func(alpha float64) float64 {
		p := PartitionDirichlet(s.Train, 10, 10, alpha, rand.New(rand.NewSource(3)))
		ud := UserDatasets(s.Train, p)
		return MeanDistinctLabels(ud, 10)
	}
	lo := skew(0.1)  // extreme skew → few labels per user
	hi := skew(10.0) // near IID → most labels per user
	if lo >= hi {
		t.Fatalf("alpha=0.1 gives %g distinct labels, alpha=10 gives %g; skew ordering wrong", lo, hi)
	}
	if hi < 8 {
		t.Fatalf("alpha=10 should be near IID, got %g distinct labels", hi)
	}
}

func TestPartitionDirichletNoEmptyUsers(t *testing.T) {
	s := small()
	// Extreme alpha concentrates everything; the repair pass must still
	// leave every user non-empty.
	p := PartitionDirichlet(s.Train, 12, 4, 0.05, rand.New(rand.NewSource(4)))
	for q := 0; q < 12; q++ {
		if len(p.UserIndices[q]) == 0 {
			t.Fatalf("user %d empty", q)
		}
	}
	if err := p.Validate(s.Train.N()); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionDirichletBadArgsPanic(t *testing.T) {
	s := small()
	for name, f := range map[string]func(){
		"zero users": func() { PartitionDirichlet(s.Train, 0, 4, 1, rand.New(rand.NewSource(1))) },
		"zero alpha": func() { PartitionDirichlet(s.Train, 2, 4, 0, rand.New(rand.NewSource(1))) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: any admissible (users, alpha) draw is a valid, complete cover.
func TestPartitionDirichletQuick(t *testing.T) {
	s := small()
	f := func(seed int64, usersRaw, alphaRaw uint8) bool {
		users := int(usersRaw)%15 + 1
		alpha := 0.1 + float64(alphaRaw)/32.0
		rng := rand.New(rand.NewSource(seed))
		p := PartitionDirichlet(s.Train, users, 4, alpha, rng)
		return p.Validate(s.Train.N()) == nil && p.TotalSamples() == s.Train.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGammaSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range []float64{0.3, 1.0, 2.5} {
		n := 20000
		sum := 0.0
		for i := 0; i < n; i++ {
			g := gammaSample(rng, shape)
			if g < 0 {
				t.Fatalf("negative gamma sample %g", g)
			}
			sum += g
		}
		mean := sum / float64(n)
		// Gamma(shape, 1) has mean = shape.
		if math.Abs(mean-shape)/shape > 0.1 {
			t.Fatalf("shape %g: sample mean %g", shape, mean)
		}
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, alpha := range []float64{0.1, 1, 5} {
		v := dirichlet(rng, alpha, 7)
		s := 0.0
		for _, x := range v {
			if x < 0 {
				t.Fatalf("negative proportion %g", x)
			}
			s += x
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("alpha %g: proportions sum to %g", alpha, s)
		}
	}
}
