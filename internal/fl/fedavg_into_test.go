package fl

import (
	"math"
	"math/rand"
	"testing"
)

// TestFedAvgIntoMatchesFedAvg pins FedAvgInto — the single-edge case of
// FedAvgHierInto — bit-identical to the literal Eq. (18) weighted mean
// (fedAvgOracle) across randomized upload sets, with the destination
// NaN-poisoned to prove it is fully overwritten, and pins it
// allocation-free.
func TestFedAvgIntoMatchesFedAvg(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dst := make([]float64, 64)
	for trial := 0; trial < 50; trial++ {
		k := rng.Intn(6) + 1
		uploads := make([][]float64, k)
		weights := make([]int, k)
		for i := range uploads {
			u := make([]float64, 64)
			for j := range u {
				u[j] = rng.NormFloat64() * 10
			}
			uploads[i] = u
			weights[i] = rng.Intn(30) + 1
		}
		want := fedAvgOracle(uploads, weights)
		for j := range dst {
			dst[j] = math.NaN() // poison: FedAvgInto must overwrite every slot
		}
		FedAvgInto(dst, uploads, weights)
		for j := range want {
			if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d param %d: got %g, want %g", trial, j, dst[j], want[j])
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { FedAvgInto(dst, uploads, weights) }); allocs != 0 {
			t.Fatalf("trial %d: FedAvgInto allocated %v times per call", trial, allocs)
		}
	}
}

// TestFedAvgIntoValidation checks the destination-length guard.
func TestFedAvgIntoValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short destination did not panic")
		}
	}()
	FedAvgInto(make([]float64, 3), [][]float64{{1, 2}}, []int{1})
}
