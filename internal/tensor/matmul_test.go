package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{
		1, 2,
		3, 4,
		5, 6,
	}, 3, 2)
	b := FromSlice([]float64{
		7, 8, 9,
		10, 11, 12,
	}, 2, 3)
	got := matMul(a, b)
	want := FromSlice([]float64{
		27, 30, 33,
		61, 68, 75,
		95, 106, 117,
	}, 3, 3)
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 4).FillNormal(rng, 0, 1)
	eye := New(4, 4)
	for i := 0; i < 4; i++ {
		eye.Set(1, i, i)
	}
	if !matMul(a, eye).AllClose(a, 1e-15) {
		t.Fatal("A·I must equal A")
	}
	if !matMul(eye, a).AllClose(a, 1e-15) {
		t.Fatal("I·A must equal A")
	}
}

func TestMatMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inner-dimension mismatch")
		}
	}()
	matMul(New(2, 3), New(2, 3))
}

func TestMatMulTransAAgreesWithExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(5, 3).FillNormal(rng, 0, 1)
	b := New(5, 4).FillNormal(rng, 0, 1)
	got := matMulTransA(a, b)
	want := matMul(transpose(a), b)
	if !got.AllClose(want, 1e-12) {
		t.Fatal("MatMulTransA must equal matMul(Aᵀ, B)")
	}
}

func TestMatMulTransBAgreesWithExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(4, 6).FillNormal(rng, 0, 1)
	b := New(5, 6).FillNormal(rng, 0, 1)
	got := matMulTransB(a, b)
	want := matMul(a, transpose(b))
	if !got.AllClose(want, 1e-12) {
		t.Fatal("MatMulTransB must equal matMul(A, Bᵀ)")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := New(3, 7).FillNormal(rng, 0, 1)
	if !transpose(transpose(a)).Equal(a) {
		t.Fatal("transpose must be an involution")
	}
	at := transpose(a)
	if at.Dim(0) != 7 || at.Dim(1) != 3 {
		t.Fatalf("transpose shape = %v", at.Shape())
	}
}

// TestOuter: the outer product a ⊗ b is the k = 1 matrix product of a
// column by a row.
func TestOuter(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2, 1)
	b := FromSlice([]float64{3, 4, 5}, 1, 3)
	got := matMul(a, b)
	want := FromSlice([]float64{3, 4, 5, 6, 8, 10}, 2, 3)
	if !got.Equal(want) {
		t.Fatalf("a ⊗ b = %v, want %v", got, want)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestMatMulTransposeIdentityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(3, 4).FillNormal(rng, 0, 1)
		b := New(4, 2).FillNormal(rng, 0, 1)
		lhs := transpose(matMul(a, b))
		rhs := matMul(transpose(b), transpose(a))
		return lhs.AllClose(rhs, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul is linear in its first argument.
func TestMatMulLinearityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a1 := New(3, 3).FillNormal(rng, 0, 1)
		a2 := New(3, 3).FillNormal(rng, 0, 1)
		b := New(3, 3).FillNormal(rng, 0, 1)
		lhs := matMul(a1.Clone().AddInPlace(a2), b)
		rhs := matMul(a1, b).AddInPlace(matMul(a2, b))
		return lhs.AllClose(rhs, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestNonzeroMatchesCompare pins matMulRows's branch-free zero test to
// v != 0 on the IEEE edge classes: ±0 are zero; NaNs of either sign,
// subnormals and infinities are not.
func TestNonzeroMatchesCompare(t *testing.T) {
	for _, b := range []uint64{
		0, 1 << 63, 1, 1<<63 | 1, 0x000FFFFFFFFFFFFF, 0x0010000000000000,
		0x3FF0000000000000, 0xBFF0000000000000, 0x7FEFFFFFFFFFFFFF,
		0x7FF0000000000000, 0xFFF0000000000000, 0x7FF0000000000001,
		0x7FF8000000000000, 0xFFF8000000000000, 0xFFFFFFFFFFFFFFFF,
	} {
		v := math.Float64frombits(b)
		want := 0
		if v != 0 {
			want = 1
		}
		if got := nonzero(v); got != want {
			t.Errorf("nonzero(%v = %#x) = %d, want %d", v, b, got, want)
		}
	}
}
