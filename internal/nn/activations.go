package nn

import "helcfl/internal/tensor"

// ReLU is the rectified-linear activation max(0, x).
type ReLU struct {
	mask []bool // true where input > 0

	// Scratch reused across steps (see scratch.go).
	out, dx *tensor.Tensor
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "ReLU" }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = ensureLike(r.out, x)
	data := r.out.Data()
	copy(data, x.Data())
	if cap(r.mask) < len(data) {
		r.mask = make([]bool, len(data))
	}
	r.mask = r.mask[:len(data)]
	for i, v := range data {
		if v > 0 {
			r.mask[i] = true
		} else {
			r.mask[i] = false
			data[i] = 0
		}
	}
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if r.mask == nil {
		panic("nn: ReLU backward before forward")
	}
	r.dx = ensureLike(r.dx, dout)
	data := r.dx.Data()
	copy(data, dout.Data())
	for i := range data {
		if !r.mask[i] {
			data[i] = 0
		}
	}
	return r.dx
}

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// Clone implements Layer.
func (r *ReLU) Clone() Layer { return &ReLU{} }
