package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddSub(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{4, 3, 2, 1}, 2, 2)
	if got := a.Add(b); !got.Equal(Full(5, 2, 2)) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(a); !got.Equal(New(2, 2)) {
		t.Fatalf("Sub self = %v", got)
	}
	// Originals untouched.
	if a.At(0, 0) != 1 || b.At(0, 0) != 4 {
		t.Fatal("Add/Sub must not mutate operands")
	}
}

func TestInPlaceVariantsMutateReceiver(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{10, 20}, 2)
	if got := a.AddInPlace(b); got != a {
		t.Fatal("AddInPlace must return the receiver")
	}
	if a.At(0) != 11 || a.At(1) != 22 {
		t.Fatalf("AddInPlace result = %v", a)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	New(2, 2).Add(New(4))
}

func TestAXPY(t *testing.T) {
	y := FromSlice([]float64{1, 1, 1}, 3)
	x := FromSlice([]float64{1, 2, 3}, 3)
	y.AXPY(2, x)
	want := FromSlice([]float64{3, 5, 7}, 3)
	if !y.Equal(want) {
		t.Fatalf("AXPY = %v, want %v", y, want)
	}
}

func TestApply(t *testing.T) {
	x := FromSlice([]float64{-1, 4}, 2)
	y := x.Apply(math.Abs)
	if y.At(0) != 1 || x.At(0) != -1 {
		t.Fatal("Apply must not mutate the receiver")
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{3, -1, 4, 1}, 4)
	if x.Sum() != 7 {
		t.Fatalf("Sum = %g", x.Sum())
	}
}

func TestAddRowVector(t *testing.T) {
	m := New(2, 3)
	m.AddRowVector(FromSlice([]float64{1, 2, 3}, 3))
	want := FromSlice([]float64{1, 2, 3, 1, 2, 3}, 2, 3)
	if !m.Equal(want) {
		t.Fatalf("AddRowVector = %v", m)
	}
}

// Property: Add is commutative, and subtracting an addend recovers the other
// within FP tolerance.
func TestAddPropertiesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(3, 4).FillUniform(rng, -10, 10)
		b := New(3, 4).FillUniform(rng, -10, 10)
		comm := a.Add(b).Equal(b.Add(a))
		inv := a.Add(b).Sub(b).AllClose(a, 1e-12)
		return comm && inv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
