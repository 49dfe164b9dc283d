package tensor

import (
	"math/rand"
	"slices"
	"testing"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Size() != 6 {
		t.Fatalf("Size = %d, want 6", x.Size())
	}
	if x.Rank() != 2 {
		t.Fatalf("Rank = %d, want 2", x.Rank())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %g, want 0", i, v)
		}
	}
}

func TestNewPanicsOnNonPositiveDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dimension")
		}
	}()
	New(2, 0)
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 9
	if x.At(0, 0) != 9 {
		t.Fatal("FromSlice must wrap, not copy")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRowMajor(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if got := x.Data()[1*3+2]; got != 7 {
		t.Fatalf("row-major layout broken: data[5] = %g, want 7", got)
	}
	if got := x.At(1, 2); got != 7 {
		t.Fatalf("At(1,2) = %g, want 7", got)
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds index")
		}
	}()
	x.At(0, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(9, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone must deep-copy data")
	}
	if !x.SameShape(y) {
		t.Fatal("Clone must preserve shape")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("Reshape must be a view over the same data")
	}
	if y.At(2, 1) != 6 {
		t.Fatalf("Reshape element order wrong: got %g, want 6", y.At(2, 1))
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size-changing reshape")
		}
	}()
	x.Reshape(4, 2)
}

func TestEqualAndAllClose(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{1, 2.0000001}, 2)
	if a.Equal(b) {
		t.Fatal("Equal must be exact")
	}
	if !a.AllClose(b, 1e-5) {
		t.Fatal("AllClose within tolerance must hold")
	}
	if a.AllClose(New(3), 1) {
		t.Fatal("AllClose must reject shape mismatch")
	}
}

func TestFillAndZero(t *testing.T) {
	x := Full(3.5, 4)
	for _, v := range x.Data() {
		if v != 3.5 {
			t.Fatalf("Full element = %g, want 3.5", v)
		}
	}
	x.Zero()
	if x.Sum() != 0 {
		t.Fatal("Zero must clear all elements")
	}
	x.Fill(-1)
	if x.Sum() != -4 {
		t.Fatalf("Fill(-1) sum = %g, want -4", x.Sum())
	}
}

func TestOnes(t *testing.T) {
	if got := Ones(3, 3).Sum(); got != 9 {
		t.Fatalf("Ones(3,3).Sum() = %g, want 9", got)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromSlice([]float64{1, 2}, 2)
	if s := small.String(); s == "" {
		t.Fatal("String must render small tensors")
	}
	large := New(100)
	if s := large.String(); s == "" {
		t.Fatal("String must summarize large tensors")
	}
}

func TestFillUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := New(1000).FillUniform(rng, -2, 3)
	for _, v := range x.Data() {
		if v < -2 || v >= 3 {
			t.Fatalf("uniform sample %g outside [-2,3)", v)
		}
	}
}

func TestFillNormalMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := New(20000).FillNormal(rng, 5, 2)
	mean := x.Mean()
	if mean < 4.9 || mean > 5.1 {
		t.Fatalf("normal sample mean %g too far from 5", mean)
	}
}

func TestFillXavierWithinLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := New(500).FillXavier(rng, 10, 10)
	// limit = sqrt(6/20) ≈ 0.5477
	for _, v := range x.Data() {
		if v < -0.548 || v > 0.548 {
			t.Fatalf("Xavier sample %g outside limit", v)
		}
	}
}

func TestFillHeDeterministicWithSeed(t *testing.T) {
	a := New(50).FillHe(rand.New(rand.NewSource(7)), 25)
	b := New(50).FillHe(rand.New(rand.NewSource(7)), 25)
	if !a.Equal(b) {
		t.Fatal("same seed must give identical initialization")
	}
}

// The Fit helpers reshape scratch in place inside its capacity and refuse —
// leaving the tensor untouched — beyond it.
func TestFitWithinCapacity(t *testing.T) {
	s := New(6, 4)
	backing := &s.Data()[0]
	for _, step := range []struct {
		name string
		fit  func() bool
		want []int
		ok   bool
	}{
		{"shrink", func() bool { return s.Fit2(2, 4) }, []int{2, 4}, true},
		{"grow back", func() bool { return s.Fit2(6, 4) }, []int{6, 4}, true},
		{"other factorization", func() bool { return s.Fit2(3, 8) }, []int{3, 8}, true},
		{"beyond capacity", func() bool { return s.Fit2(5, 5) }, []int{3, 8}, false},
		{"non-positive dim", func() bool { return s.Fit2(0, 4) }, []int{3, 8}, false},
		{"rank beyond shape capacity", func() bool { return s.Fit4(1, 2, 3, 4) }, []int{3, 8}, false},
		{"lower rank", func() bool { return s.FitShape([]int{24}) }, []int{24}, true},
		{"rank restored", func() bool { return s.FitShape([]int{4, 6}) }, []int{4, 6}, true},
		{"bad shape slice", func() bool { return s.FitShape([]int{4, -6}) }, []int{4, 6}, false},
	} {
		if got := step.fit(); got != step.ok {
			t.Fatalf("%s: fit reported %v, want %v", step.name, got, step.ok)
		}
		if !slices.Equal(s.Shape(), step.want) {
			t.Fatalf("%s: shape %v, want %v", step.name, s.Shape(), step.want)
		}
		n := 1
		for _, d := range step.want {
			n *= d
		}
		if s.Size() != n || &s.Data()[0] != backing {
			t.Fatalf("%s: size %d on backing %p, want %d on the original %p", step.name, s.Size(), &s.Data()[0], n, backing)
		}
	}

	r4 := New(4, 3, 2, 2)
	if !r4.Fit4(2, 3, 2, 2) || !slices.Equal(r4.Shape(), []int{2, 3, 2, 2}) || r4.Size() != 24 {
		t.Fatalf("Fit4 shrink: shape %v size %d", r4.Shape(), r4.Size())
	}
	if r4.Fit4(5, 3, 2, 2) || !slices.Equal(r4.Shape(), []int{2, 3, 2, 2}) {
		t.Fatalf("Fit4 beyond capacity changed the tensor: shape %v", r4.Shape())
	}
	// A shape read before the fit is a copy only if the caller made one:
	// fitting to the tensor's own shape slice must be a no-op, not a scramble.
	if !r4.FitShape(r4.Shape()) || !slices.Equal(r4.Shape(), []int{2, 3, 2, 2}) {
		t.Fatalf("FitShape onto own shape: %v", r4.Shape())
	}
}
