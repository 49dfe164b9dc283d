package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no padding: im2col is just a reshape.
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	cols := im2col(x, 1, 1, 1, 0)
	if cols.Dim(0) != 1 || cols.Dim(1) != 4 {
		t.Fatalf("cols shape = %v", cols.Shape())
	}
	if !cols.Reshape(1, 2, 2).Equal(x) {
		t.Fatalf("1x1 im2col must preserve values: %v", cols)
	}
}

func TestIm2ColKnownPatch(t *testing.T) {
	// 1-channel 3x3 image, 2x2 kernel, stride 1, pad 0 → 4 patches.
	x := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	cols := im2col(x, 2, 2, 1, 0)
	if cols.Dim(0) != 4 || cols.Dim(1) != 4 {
		t.Fatalf("cols shape = %v, want [4 4]", cols.Shape())
	}
	// Column 0 is the top-left patch [1 2 4 5] read kernel-position-major.
	want0 := []float64{1, 2, 4, 5}
	for r, w := range want0 {
		if got := cols.At(r, 0); got != w {
			t.Fatalf("cols[%d,0] = %g, want %g", r, got, w)
		}
	}
	// Column 3 is the bottom-right patch [5 6 8 9].
	want3 := []float64{5, 6, 8, 9}
	for r, w := range want3 {
		if got := cols.At(r, 3); got != w {
			t.Fatalf("cols[%d,3] = %g, want %g", r, got, w)
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	x := Ones(1, 2, 2)
	cols := im2col(x, 3, 3, 1, 1)
	// Output is 2x2 positions; the padded border contributes zeros, so the
	// total sum must equal sum over patches of in-bounds ones.
	if cols.Dim(0) != 9 || cols.Dim(1) != 4 {
		t.Fatalf("cols shape = %v", cols.Shape())
	}
	if got := cols.Sum(); got != 16 { // each of the 4 patches covers all 4 ones
		t.Fatalf("padded im2col sum = %g, want 16", got)
	}
}

func TestIm2ColStride(t *testing.T) {
	x := New(1, 4, 4)
	for i := 0; i < 16; i++ {
		x.Data()[i] = float64(i)
	}
	cols := im2col(x, 2, 2, 2, 0)
	if cols.Dim(1) != 4 {
		t.Fatalf("stride-2 output positions = %d, want 4", cols.Dim(1))
	}
	// First patch top-left = 0, second patch top-left = 2 (stride 2).
	if cols.At(0, 0) != 0 || cols.At(0, 1) != 2 {
		t.Fatalf("stride-2 patches wrong: %g, %g", cols.At(0, 0), cols.At(0, 1))
	}
}

func TestConvOutSize(t *testing.T) {
	if got := ConvOutSize(8, 3, 1, 1); got != 8 {
		t.Fatalf("same-pad 3x3 out = %d, want 8", got)
	}
	if got := ConvOutSize(8, 2, 2, 0); got != 4 {
		t.Fatalf("2x2 stride-2 out = %d, want 4", got)
	}
}

// Property: Col2Im is the adjoint of Im2Col — for all x, y:
// <im2col(x), y> == <x, col2im(y)>. This is exactly the property backprop
// through convolution relies on.
func TestCol2ImAdjointQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, h, w := 2, 5, 5
		kh, kw, stride, pad := 3, 3, 1, 1
		x := New(c, h, w).FillNormal(rng, 0, 1)
		cols := im2col(x, kh, kw, stride, pad)
		y := New(cols.Dim(0), cols.Dim(1)).FillNormal(rng, 0, 1)
		lhs := cols.Dot(y)
		rhs := x.Dot(col2im(y, c, h, w, kh, kw, stride, pad))
		d := lhs - rhs
		if d < 0 {
			d = -d
		}
		return d < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCol2ImAccumulatesOverlaps(t *testing.T) {
	// 2x2 image, 2x2 kernel, stride 1, pad 1 → every pixel is covered by
	// exactly 4 patches; scattering all-ones columns must yield 4 everywhere.
	c, h, w := 1, 2, 2
	oh := ConvOutSize(h, 2, 1, 1)
	cols := Ones(1*2*2, oh*oh)
	img := col2im(cols, c, h, w, 2, 2, 1, 1)
	for i, v := range img.Data() {
		if v != 4 {
			t.Fatalf("pixel %d = %g, want 4 (overlap accumulation)", i, v)
		}
	}
}

func TestIm2ColBadInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rank-2 input")
		}
	}()
	im2col(New(3, 3), 2, 2, 1, 0)
}
