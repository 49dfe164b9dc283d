package nn

import (
	"fmt"
	"math/rand"

	"helcfl/internal/tensor"
)

// Dense is a fully connected layer computing y = x·W + b for a batch x of
// shape (B, in), with W of shape (in, out) and b of shape (out).
type Dense struct {
	In, Out int

	w, b   *tensor.Tensor
	dw, db *tensor.Tensor
	x      *tensor.Tensor // cached input for backward

	// Scratch reused across steps (see scratch.go).
	out, dx, dwTmp *tensor.Tensor
}

// NewDense returns a Dense layer with Xavier-uniform weights and zero bias.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out,
		w:  tensor.New(in, out).FillXavier(rng, in, out),
		b:  tensor.New(out),
		dw: tensor.New(in, out),
		db: tensor.New(out),
	}
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("Dense(%d→%d)", d.In, d.Out) }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != d.In {
		panic(fmt.Sprintf("nn: Dense forward shape %v, want (B, %d)", x.Shape(), d.In))
	}
	d.x = x
	d.out = ensure2(d.out, x.Dim(0), d.Out)
	tensor.MatMulInto(d.out, x, d.w)
	return d.out.AddRowVector(d.b)
}

// Backward implements Layer.
func (d *Dense) Backward(dout *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(dout)
	d.dx = ensure2(d.dx, dout.Dim(0), d.In)
	tensor.MatMulTransBInto(d.dx, dout, d.w)
	return d.dx
}

// backwardParams accumulates dW += xᵀ·dout and db += colsum(dout): the
// parameter half of Backward, all a first layer needs.
func (d *Dense) backwardParams(dout *tensor.Tensor) {
	if d.x == nil {
		panic("nn: Dense backward before forward")
	}
	d.dwTmp = ensure2(d.dwTmp, d.In, d.Out)
	tensor.MatMulTransAInto(d.dwTmp, d.x, dout)
	d.dw.AddInPlace(d.dwTmp)
	dout.AddColSumsInto(d.db)
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.w, d.b} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.dw, d.db} }

// Clone implements Layer.
func (d *Dense) Clone() Layer {
	return &Dense{
		In: d.In, Out: d.Out,
		w: d.w.Clone(), b: d.b.Clone(),
		dw: d.dw.Clone(), db: d.db.Clone(),
	}
}
