package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func small() *Synth {
	return GenerateSynth(SynthConfig{Classes: 4, C: 2, H: 4, W: 4, TrainN: 200, TestN: 80, Noise: 0.5, Seed: 1})
}

func TestGenerateSynthShapes(t *testing.T) {
	s := small()
	if s.Train.N() != 200 || s.Test.N() != 80 {
		t.Fatalf("split sizes = %d/%d", s.Train.N(), s.Test.N())
	}
	if s.Train.Channels() != 2 || s.Train.Height() != 4 || s.Train.Width() != 4 {
		t.Fatalf("geometry = %d,%d,%d", s.Train.Channels(), s.Train.Height(), s.Train.Width())
	}
	if s.Train.SampleDim() != 32 {
		t.Fatalf("SampleDim = %d", s.Train.SampleDim())
	}
}

func TestGenerateSynthBalancedLabels(t *testing.T) {
	s := small()
	h := s.Train.LabelHistogram(4)
	for k, c := range h {
		if c != 50 {
			t.Fatalf("class %d count = %d, want 50", k, c)
		}
	}
}

func TestGenerateSynthDeterministic(t *testing.T) {
	a := small()
	b := small()
	if !a.Train.X.Equal(b.Train.X) {
		t.Fatal("same seed must regenerate identical data")
	}
	c := GenerateSynth(SynthConfig{Classes: 4, C: 2, H: 4, W: 4, TrainN: 200, TestN: 80, Noise: 0.5, Seed: 2})
	if a.Train.X.Equal(c.Train.X) {
		t.Fatal("different seeds must differ")
	}
}

func TestGenerateSynthDefaults(t *testing.T) {
	s := GenerateSynth(SynthConfig{Seed: 3})
	if d := s.Train; d.Channels() != 3 || d.Height() != 8 || d.Width() != 8 || d.DistinctLabels(10) != 10 {
		t.Fatalf("default shape %v, %d classes", d.X.Shape(), d.DistinctLabels(10))
	}
	if s.Train.N() != 4000 || s.Test.N() != 1000 {
		t.Fatalf("default sizes = %d/%d", s.Train.N(), s.Test.N())
	}
}

func TestGenerateSynthClassesSeparable(t *testing.T) {
	// With low noise, the nearest-prototype structure means same-class
	// samples are closer than cross-class samples on average.
	s := GenerateSynth(SynthConfig{Classes: 3, C: 1, H: 6, W: 6, TrainN: 300, TestN: 30, Noise: 0.2, Seed: 4})
	d := s.Train
	plane := d.SampleDim()
	centroid := make([][]float64, 3)
	count := make([]int, 3)
	for k := range centroid {
		centroid[k] = make([]float64, plane)
	}
	for i := 0; i < d.N(); i++ {
		k := d.Labels[i]
		row := d.X.Data()[i*plane : (i+1)*plane]
		for j, v := range row {
			centroid[k][j] += v
		}
		count[k]++
	}
	for k := range centroid {
		for j := range centroid[k] {
			centroid[k][j] /= float64(count[k])
		}
	}
	correct := 0
	for i := 0; i < d.N(); i++ {
		row := d.X.Data()[i*plane : (i+1)*plane]
		best, bestD := -1, math.Inf(1)
		for k := range centroid {
			s := 0.0
			for j, v := range row {
				diff := v - centroid[k][j]
				s += diff * diff
			}
			if s < bestD {
				best, bestD = k, s
			}
		}
		if best == d.Labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(d.N()); acc < 0.95 {
		t.Fatalf("nearest-centroid accuracy = %g, classes not separable", acc)
	}
}

func TestSubset(t *testing.T) {
	s := small()
	sub := s.Train.Subset([]int{0, 5, 10})
	if sub.N() != 3 {
		t.Fatalf("subset N = %d", sub.N())
	}
	if sub.Labels[1] != s.Train.Labels[5] {
		t.Fatal("subset labels misaligned")
	}
	// Mutating the subset must not touch the parent.
	sub.X.Data()[0] += 100
	if s.Train.X.Data()[0] == sub.X.Data()[0] {
		t.Fatal("Subset must copy data")
	}
}

func TestSubsetEmptyPanics(t *testing.T) {
	s := small()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty subset")
		}
	}()
	s.Train.Subset(nil)
}

func TestSubsetOutOfRangePanics(t *testing.T) {
	s := small()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	s.Train.Subset([]int{9999})
}

func TestFlatXSharesStorage(t *testing.T) {
	s := small()
	flat := s.Train.FlatX()
	if flat.Dim(0) != 200 || flat.Dim(1) != 32 {
		t.Fatalf("flat shape = %v", flat.Shape())
	}
	flat.Set(42, 0, 0)
	if s.Train.X.Data()[0] != 42 {
		t.Fatal("FlatX must be a view")
	}
}

func TestPartitionIIDCoversAll(t *testing.T) {
	s := small()
	rng := rand.New(rand.NewSource(1))
	p := PartitionIID(s.Train, 7, rng)
	if p.Users() != 7 {
		t.Fatalf("Users = %d", p.Users())
	}
	if err := p.Validate(s.Train.N()); err != nil {
		t.Fatal(err)
	}
	if p.TotalSamples() != s.Train.N() {
		t.Fatalf("assigned %d of %d samples", p.TotalSamples(), s.Train.N())
	}
	// Sizes differ by at most one.
	minSz, maxSz := len(p.UserIndices[0]), len(p.UserIndices[0])
	for q := 1; q < 7; q++ {
		if len(p.UserIndices[q]) < minSz {
			minSz = len(p.UserIndices[q])
		}
		if len(p.UserIndices[q]) > maxSz {
			maxSz = len(p.UserIndices[q])
		}
	}
	if maxSz-minSz > 1 {
		t.Fatalf("IID split uneven: min %d max %d", minSz, maxSz)
	}
}

func TestPartitionIIDLabelMixing(t *testing.T) {
	s := small()
	p := PartitionIID(s.Train, 10, rand.New(rand.NewSource(2)))
	ud := UserDatasets(s.Train, p)
	if got := MeanDistinctLabels(ud, 4); got < 3.5 {
		t.Fatalf("IID users see %g distinct labels on average, want ≈4", got)
	}
}

func TestPartitionNonIIDShardStructure(t *testing.T) {
	s := small()
	p := PartitionNonIID(s.Train, 10, 20, 2, rand.New(rand.NewSource(3)))
	if err := p.Validate(s.Train.N()); err != nil {
		t.Fatal(err)
	}
	if p.TotalSamples() != s.Train.N() {
		t.Fatalf("assigned %d of %d samples", p.TotalSamples(), s.Train.N())
	}
	ud := UserDatasets(s.Train, p)
	// Each user holds 2 shards ⇒ at most ~3 labels (shards can straddle one
	// class boundary), and far fewer than the IID 4.
	mean := MeanDistinctLabels(ud, 4)
	if mean > 3.0 {
		t.Fatalf("Non-IID users see %g distinct labels on average, too mixed", mean)
	}
	for q, d := range ud {
		if d.DistinctLabels(4) > 2*2 {
			t.Fatalf("user %d sees %d labels, exceeds shard bound", q, d.DistinctLabels(4))
		}
	}
}

func TestPartitionNonIIDPaperScale(t *testing.T) {
	s := GenerateSynth(SynthConfig{TrainN: 4000, TestN: 100, Seed: 5})
	p := PartitionNonIID(s.Train, 100, 400, 4, rand.New(rand.NewSource(4)))
	if err := p.Validate(4000); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 100; q++ {
		if len(p.UserIndices[q]) != 40 {
			t.Fatalf("user %d size = %d, want 40", q, len(p.UserIndices[q]))
		}
	}
}

func TestPartitionNonIIDBadShardCountPanics(t *testing.T) {
	s := small()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when shards != users*shardsPerUser")
		}
	}()
	PartitionNonIID(s.Train, 10, 25, 2, rand.New(rand.NewSource(1)))
}

func TestPartitionValidateCatchesDuplicates(t *testing.T) {
	p := &Partition{UserIndices: [][]int{{0, 1}, {1, 2}}}
	if err := p.Validate(3); err == nil {
		t.Fatal("duplicate assignment must fail validation")
	}
	p2 := &Partition{UserIndices: [][]int{{0}, {}}}
	if err := p2.Validate(1); err == nil {
		t.Fatal("empty user must fail validation")
	}
	p3 := &Partition{UserIndices: [][]int{{5}}}
	if err := p3.Validate(3); err == nil {
		t.Fatal("out-of-range index must fail validation")
	}
}

// Property: both partitioners always produce valid, complete covers for any
// admissible user count.
func TestPartitionersValidQuick(t *testing.T) {
	s := small()
	f := func(seed int64, usersRaw uint8) bool {
		users := int(usersRaw)%20 + 1
		rng := rand.New(rand.NewSource(seed))
		p := PartitionIID(s.Train, users, rng)
		if p.Validate(s.Train.N()) != nil || p.TotalSamples() != s.Train.N() {
			return false
		}
		spu := 2
		p2 := PartitionNonIID(s.Train, users, users*spu, spu, rng)
		return p2.Validate(s.Train.N()) == nil && p2.TotalSamples() == s.Train.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestUserDatasetsSizes(t *testing.T) {
	s := small()
	p := PartitionIID(s.Train, 4, rand.New(rand.NewSource(6)))
	ud := UserDatasets(s.Train, p)
	if len(ud) != 4 {
		t.Fatalf("UserDatasets len = %d", len(ud))
	}
	total := 0
	for _, d := range ud {
		total += d.N()
	}
	if total != s.Train.N() {
		t.Fatalf("user datasets hold %d samples, want %d", total, s.Train.N())
	}
}

func TestMeanDistinctLabelsEmpty(t *testing.T) {
	if MeanDistinctLabels(nil, 10) != 0 {
		t.Fatal("empty user list must give 0")
	}
}

// TotalSamples returns the number of assigned samples across all users.
func (p *Partition) TotalSamples() int {
	n := 0
	for _, idx := range p.UserIndices {
		n += len(idx)
	}
	return n
}

// Validate checks that indices are within [0, n), that no index is assigned
// twice, and that every user owns at least one sample.
func (p *Partition) Validate(n int) error {
	seen := make([]bool, n)
	for q, idxs := range p.UserIndices {
		if len(idxs) == 0 {
			return fmt.Errorf("dataset: user %d owns no samples", q)
		}
		for _, i := range idxs {
			if i < 0 || i >= n {
				return fmt.Errorf("dataset: user %d holds index %d outside [0,%d)", q, i, n)
			}
			if seen[i] {
				return fmt.Errorf("dataset: index %d assigned to multiple users", i)
			}
			seen[i] = true
		}
	}
	return nil
}
