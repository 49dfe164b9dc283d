package nn

import (
	"helcfl/internal/tensor"
)

// Sequential chains layers; the output of each feeds the next.
type Sequential struct {
	layers []Layer

	// params/grads cache the flattened tensor lists so hot-path callers
	// (ZeroGrads, the client update loop) don't rebuild slices every step.
	// Add invalidates them.
	params, grads []*tensor.Tensor
}

// NewSequential returns a model over the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{layers: layers}
}

// Add appends a layer and returns the model for chaining.
func (m *Sequential) Add(l Layer) *Sequential {
	m.layers = append(m.layers, l)
	m.params, m.grads = nil, nil
	return m
}

// Layers returns the layer list (do not modify).
func (m *Sequential) Layers() []Layer { return m.layers }

// Forward runs the whole network on a batch.
func (m *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range m.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates a loss gradient through all layers in reverse,
// accumulating parameter gradients, and returns the input gradient.
func (m *Sequential) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return m.backward(dout, false)
}

// BackwardParams is Backward for a training step: it accumulates the same
// parameter gradients, bit for bit, but the first layer skips the gradient
// with respect to the model input, which no optimizer reads. For Dense
// that is one of its three matmuls; for Conv2D a matmul and the col2im
// scatter.
func (m *Sequential) BackwardParams(dout *tensor.Tensor) {
	m.backward(dout, true)
}

// paramBackwarder is a layer that can accumulate its parameter gradients
// without computing its input gradient.
type paramBackwarder interface {
	backwardParams(dout *tensor.Tensor)
}

// backward runs the layers in reverse. With paramsOnly, a first layer
// that is a paramBackwarder stops at its parameter gradients and the
// result is nil; any other first layer runs its full Backward.
func (m *Sequential) backward(dout *tensor.Tensor, paramsOnly bool) *tensor.Tensor {
	for i := len(m.layers) - 1; i >= 0; i-- {
		if paramsOnly && i == 0 {
			if l, ok := m.layers[0].(paramBackwarder); ok {
				l.backwardParams(dout)
				return nil
			}
		}
		dout = m.layers[i].Backward(dout)
	}
	return dout
}

// Params returns all trainable parameters, layer order, params within layer
// in declaration order. The list is cached after the first call (do not
// modify it); Add invalidates the cache.
func (m *Sequential) Params() []*tensor.Tensor {
	if m.params == nil {
		for _, l := range m.layers {
			m.params = append(m.params, l.Params()...)
		}
	}
	return m.params
}

// Grads returns all parameter gradients aligned with Params. Cached like
// Params.
func (m *Sequential) Grads() []*tensor.Tensor {
	if m.grads == nil {
		for _, l := range m.layers {
			m.grads = append(m.grads, l.Grads()...)
		}
	}
	return m.grads
}

// ZeroGrads clears all accumulated gradients.
func (m *Sequential) ZeroGrads() {
	for _, g := range m.Grads() {
		g.Zero()
	}
}

// Clone returns a deep copy with independent parameters.
func (m *Sequential) Clone() *Sequential {
	ls := make([]Layer, len(m.layers))
	for i, l := range m.layers {
		ls[i] = l.Clone()
	}
	return &Sequential{layers: ls}
}

// NumParams returns the total number of scalar parameters.
func (m *Sequential) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.Size()
	}
	return n
}

// GetFlatParams copies all parameters into one flat vector, in Params order.
func (m *Sequential) GetFlatParams() []float64 {
	out := make([]float64, 0, m.NumParams())
	for _, p := range m.Params() {
		out = append(out, p.Data()...)
	}
	return out
}

// FlatParamsInto copies all parameters into dst (length NumParams), in
// Params order — the allocation-free form of GetFlatParams.
func (m *Sequential) FlatParamsInto(dst []float64) {
	off := 0
	for _, p := range m.Params() {
		n := p.Size()
		if off+n > len(dst) {
			panic("nn: FlatParamsInto destination too short for model")
		}
		copy(dst[off:off+n], p.Data())
		off += n
	}
	if off != len(dst) {
		panic("nn: FlatParamsInto destination longer than model parameters")
	}
}

// SetFlatParams overwrites all parameters from a flat vector produced by
// GetFlatParams on a model with identical architecture.
func (m *Sequential) SetFlatParams(flat []float64) {
	off := 0
	for _, p := range m.Params() {
		n := p.Size()
		if off+n > len(flat) {
			panic("nn: SetFlatParams vector too short for model")
		}
		copy(p.Data(), flat[off:off+n])
		off += n
	}
	if off != len(flat) {
		panic("nn: SetFlatParams vector longer than model parameters")
	}
}
