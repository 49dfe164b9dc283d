package nn

import (
	"math"
	"testing"

	"helcfl/internal/tensor"
)

// reluForwardOracle and reluBackwardOracle are the branchy ReLU loops the
// branch-free passes replace: x where x > 0, else +0, and the output
// gradient where the input was > 0, else +0.
func reluForwardOracle(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if v > 0 {
			out[i] = v
		}
	}
	return out
}

func reluBackwardOracle(x, dout []float64) []float64 {
	dx := make([]float64, len(x))
	for i, v := range x {
		if v > 0 {
			dx[i] = dout[i]
		}
	}
	return dx
}

// ieeeEdges lists the float64 classes where a bit trick and a compare can
// part: both zeros, NaNs of either sign and several payloads, both
// infinities, the subnormal and normal boundaries, and large magnitudes.
func ieeeEdges() []float64 {
	nan := func(b uint64) float64 { return math.Float64frombits(b) }
	return []float64{
		0, math.Copysign(0, -1),
		math.NaN(), -math.NaN(), nan(0x7FF0000000000001), nan(0xFFF8000000000001), nan(0x7FFFFFFFFFFFFFFF), nan(0xFFFFFFFFFFFFFFFF),
		math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), -math.Float64frombits(0x000FFFFFFFFFFFFF),
		0x1p-1022, -0x1p-1022,
		1, -1, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
	}
}

// TestReLUBranchFreeMatchesBranchy pins both ReLU passes, bit for bit,
// to the branchy oracles on every IEEE edge class, as inputs and, in
// backward, against every edge class as output gradient.
func TestReLUBranchFreeMatchesBranchy(t *testing.T) {
	edges := ieeeEdges()
	n := len(edges)
	x := make([]float64, 0, n*n)
	dout := make([]float64, 0, n*n)
	for _, v := range edges {
		for _, g := range edges {
			x = append(x, v)
			dout = append(dout, g)
		}
	}
	r := NewReLU()
	y := r.Forward(tensor.FromSlice(x, n, n), true).Data()
	for i, want := range reluForwardOracle(x) {
		if math.Float64bits(y[i]) != math.Float64bits(want) {
			t.Fatalf("forward(%v) = %v (%#x), branchy loop gives %v (%#x)", x[i], y[i], math.Float64bits(y[i]), want, math.Float64bits(want))
		}
	}
	dx := r.Backward(tensor.FromSlice(dout, n, n)).Data()
	for i, want := range reluBackwardOracle(x, dout) {
		if math.Float64bits(dx[i]) != math.Float64bits(want) {
			t.Fatalf("backward at x=%v, dout=%v: %v (%#x), branchy loop gives %v (%#x)", x[i], dout[i], dx[i], math.Float64bits(dx[i]), want, math.Float64bits(want))
		}
	}
}
