package fl

import "fmt"

// FedAvgInto aggregates uploaded flat parameter vectors with the weighted
// mean of Eq. (18), M_G ← Σ |D_q|·M_q / Σ |D_q|, into a caller-owned dst of
// exactly the parameter length (fully overwritten). It is FedAvgHierInto
// with one edge, the FLCC: no scratch, no allocation.
func FedAvgInto(dst []float64, uploads [][]float64, weights []int) {
	FedAvgHierInto(dst, nil, uploads, weights, nil, 1)
}

// HierScratch holds the per-edge accumulators of FedAvgHierInto so the
// engine's round loop reuses them. The zero value is ready to use.
type HierScratch struct {
	sums [][]float64
	wsum []float64
}

// FedAvgHierInto is FedAvg over an edge-aggregation tier: each edge
// aggregator e computes the Eq. (18) weighted mean over its own uploads
// (edges[i] names upload i's aggregator; edges may be nil when
// numEdges == 1), then the FLCC averages the E edge models weighted by
// their total sample counts. The composition is algebraically identical to
// one-level FedAvg —
//
//	Σ_e (W_e/W)·(Σ_{i∈e} w_i·M_i / W_e) = Σ_i w_i·M_i / W
//
// — but not bitwise for E > 1 (the float sums associate differently). At
// E = 1 the single edge accumulates straight into dst and the second level
// reduces to the 1/W scaling, leaving scratch untouched (it may be nil).
// Edges with no uploads this round simply contribute nothing.
func FedAvgHierInto(dst []float64, scratch *HierScratch, uploads [][]float64, weights []int, edges []int, numEdges int) {
	if len(uploads) == 0 {
		panic("fl: FedAvg with no uploads")
	}
	if len(uploads) != len(weights) || ((edges != nil || numEdges > 1) && len(uploads) != len(edges)) {
		panic(fmt.Sprintf("fl: %d uploads but %d weights and %d edge assignments", len(uploads), len(weights), len(edges)))
	}
	if numEdges <= 0 {
		panic(fmt.Sprintf("fl: non-positive edge count %d", numEdges))
	}
	n := len(uploads[0])
	if len(dst) != n {
		panic(fmt.Sprintf("fl: FedAvg destination has %d params, want %d", len(dst), n))
	}
	// upload validates upload i and returns its weight and edge.
	upload := func(i int) (float64, int) {
		if len(uploads[i]) != n {
			panic(fmt.Sprintf("fl: upload %d has %d params, want %d", i, len(uploads[i]), n))
		}
		if weights[i] <= 0 {
			panic(fmt.Sprintf("fl: non-positive weight %d for upload %d", weights[i], i))
		}
		e := 0
		if edges != nil {
			e = edges[i]
		}
		if e < 0 || e >= numEdges {
			panic(fmt.Sprintf("fl: upload %d assigned to edge %d outside [0, %d)", i, e, numEdges))
		}
		return float64(weights[i]), e
	}
	if numEdges == 1 {
		clear(dst)
		totalW := 0.0
		for i, u := range uploads {
			w, _ := upload(i)
			totalW += w
			for j, v := range u {
				dst[j] += w * v
			}
		}
		inv := 1 / totalW
		for j := range dst {
			dst[j] *= inv
		}
		return
	}
	if len(scratch.sums) < numEdges {
		scratch.sums = make([][]float64, numEdges)
		scratch.wsum = make([]float64, numEdges)
	}
	sums := scratch.sums[:numEdges]
	wsum := scratch.wsum[:numEdges]
	for e := 0; e < numEdges; e++ {
		if len(sums[e]) != n {
			sums[e] = make([]float64, n)
		}
		clear(sums[e])
		wsum[e] = 0
	}
	// First level: per-edge weighted sums, accumulated in upload order.
	for i, u := range uploads {
		w, e := upload(i)
		wsum[e] += w
		row := sums[e]
		for j, v := range u {
			row[j] += w * v
		}
	}
	totalW := 0.0
	for e := 0; e < numEdges; e++ {
		totalW += wsum[e]
	}
	// Second level: FLCC-side weighted mean of the edge models.
	clear(dst)
	for e := 0; e < numEdges; e++ {
		if wsum[e] == 0 {
			continue // edge had no participants this round
		}
		share := wsum[e] / totalW
		invE := 1 / wsum[e]
		row := sums[e]
		for j := range dst {
			dst[j] += share * (row[j] * invE)
		}
	}
}
