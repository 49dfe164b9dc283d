package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

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
	New(2, 2).AddInPlace(New(4))
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

// Property: AddInPlace is commutative, and an AXPY by -1 of an addend
// recovers the other within FP tolerance.
func TestAddPropertiesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(3, 4).FillUniform(rng, -10, 10)
		b := New(3, 4).FillUniform(rng, -10, 10)
		comm := a.Clone().AddInPlace(b).Equal(b.Clone().AddInPlace(a))
		inv := a.Clone().AddInPlace(b).AXPY(-1, b).AllClose(a, 1e-12)
		return comm && inv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
