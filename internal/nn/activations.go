package nn

import (
	"math"
	"math/bits"

	"helcfl/internal/tensor"
)

// ReLU is the rectified-linear activation max(0, x).
//
// Both passes are branch-free. Half of a ReLU's inputs are negative, in
// no pattern a branch predictor can learn, so a compare-and-branch per
// element mispredicts about every other time. positiveMask instead turns
// each element's bits into an all-ones or all-zero mask, and the passes
// AND it in. The bits are those of the branchy loop: x where x > 0, and
// +0 for ±0, negatives and NaN.
type ReLU struct {
	// Scratch reused across steps (see scratch.go). Backward reads the
	// forward output as its mask: out is positive exactly where the
	// input was.
	out, dx *tensor.Tensor
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "ReLU" }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = ensureLike(r.out, x)
	in := x.Data()
	out := r.out.Data()[:len(in)]
	for i, v := range in {
		b := math.Float64bits(v)
		out[i] = math.Float64frombits(b & positiveMask(b))
	}
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if r.out == nil {
		panic("nn: ReLU backward before forward")
	}
	r.dx = ensureLike(r.dx, dout)
	g := dout.Data()
	y := r.out.Data()[:len(g)]
	dx := r.dx.Data()[:len(g)]
	for i, v := range g {
		dx[i] = math.Float64frombits(math.Float64bits(v) & positiveMask(math.Float64bits(y[i])))
	}
	return r.dx
}

// positiveMask returns all ones when the float64 with bits b is > 0 and
// zero otherwise. The positive float64s — subnormals through +Inf — are
// exactly the bit patterns 1 … 0x7FF0000000000000, so b > 0 holds when
// b-1 < 0x7FF0000000000000 unsigned (b = 0 wraps to the top), and the
// borrow of that subtraction is the comparison, with no branch.
func positiveMask(b uint64) uint64 {
	_, borrow := bits.Sub64(b-1, 0x7FF0000000000000, 0)
	return -borrow
}

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// Clone implements Layer.
func (r *ReLU) Clone() Layer { return &ReLU{} }
