package fl

import (
	"math"
	"math/rand"
	"testing"
)

// TestFedAvgHierSingleEdgeBitIdentical pins the E == 1 path — explicit
// all-zero edges and nil edges, scratch or none — bit-identical to the
// literal one-level mean (fedAvgOracle) into a NaN-poisoned destination.
func TestFedAvgHierSingleEdgeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(50)
		m := 1 + rng.Intn(12)
		uploads := make([][]float64, m)
		weights := make([]int, m)
		edges := make([]int, m)
		for i := range uploads {
			uploads[i] = make([]float64, n)
			for j := range uploads[i] {
				uploads[i][j] = rng.NormFloat64()
			}
			weights[i] = 1 + rng.Intn(100)
		}
		want := fedAvgOracle(uploads, weights)
		var scratch HierScratch
		for name, avg := range map[string]func(dst []float64){
			"zero edges": func(dst []float64) { FedAvgHierInto(dst, &scratch, uploads, weights, edges, 1) },
			"nil edges":  func(dst []float64) { FedAvgHierInto(dst, nil, uploads, weights, nil, 1) },
		} {
			got := make([]float64, n)
			for j := range got {
				got[j] = math.NaN()
			}
			avg(got)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("trial %d %s: param %d diverges: got %v, want %v", trial, name, j, got[j], want[j])
				}
			}
		}
	}
}

// TestFedAvgHierWeightedCorrectness checks the two-level mean agrees with
// flat FedAvg up to float reassociation across random multi-edge splits —
// the algebraic identity Σ_e (W_e/W)·(Σ_{i∈e} w_i·M_i/W_e) = Σ_i w_i·M_i/W.
func TestFedAvgHierWeightedCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		m := 2 + rng.Intn(20)
		numEdges := 2 + rng.Intn(4)
		uploads := make([][]float64, m)
		weights := make([]int, m)
		edges := make([]int, m)
		for i := range uploads {
			uploads[i] = make([]float64, n)
			for j := range uploads[i] {
				uploads[i][j] = rng.NormFloat64()
			}
			weights[i] = 1 + rng.Intn(100)
			edges[i] = rng.Intn(numEdges)
		}
		flat := fedAvgOracle(uploads, weights)
		hier := make([]float64, n)
		var scratch HierScratch
		FedAvgHierInto(hier, &scratch, uploads, weights, edges, numEdges)
		for j := range flat {
			if math.Abs(flat[j]-hier[j]) > 1e-12*(1+math.Abs(flat[j])) {
				t.Fatalf("trial %d: param %d diverges beyond reassociation noise: flat %v, hier %v", trial, j, flat[j], hier[j])
			}
		}
	}
	// Empty edges contribute nothing: all uploads on edge 2 of 5.
	uploads := [][]float64{{1, 2}, {3, 4}}
	weights := []int{1, 3}
	dst := make([]float64, 2)
	want := fedAvgOracle(uploads, weights)
	var scratch HierScratch
	FedAvgHierInto(dst, &scratch, uploads, weights, []int{2, 2}, 5)
	for j := range dst {
		if dst[j] != want[j] {
			t.Fatalf("sparse edges: param %d = %v, want %v", j, dst[j], want[j])
		}
	}
}

func TestFedAvgHierPanics(t *testing.T) {
	var scratch HierScratch
	dst := make([]float64, 2)
	ok := [][]float64{{1, 2}}
	for name, f := range map[string]func(){
		"no uploads":   func() { FedAvgHierInto(dst, &scratch, nil, nil, nil, 1) },
		"ragged edges": func() { FedAvgHierInto(dst, &scratch, ok, []int{1}, []int{0, 1}, 2) },
		"zero edges":   func() { FedAvgHierInto(dst, &scratch, ok, []int{1}, []int{0}, 0) },
		"nil edges":    func() { FedAvgHierInto(dst, &scratch, ok, []int{1}, nil, 2) },
		"one edge":     func() { FedAvgHierInto(dst, nil, ok, []int{1}, []int{1}, 1) },
		"edge range":   func() { FedAvgHierInto(dst, &scratch, ok, []int{1}, []int{3}, 2) },
		"bad weight":   func() { FedAvgHierInto(dst, &scratch, ok, []int{0}, []int{0}, 1) },
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
