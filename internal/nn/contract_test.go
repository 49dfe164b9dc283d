package nn

import (
	"math"
	"math/rand"
	"testing"

	"helcfl/internal/tensor"
)

// layerCase drives the generic layer-contract harness.
type layerCase struct {
	name  string
	make  func(rng *rand.Rand) Layer
	input func(rng *rand.Rand) *tensor.Tensor
}

func layerCases() []layerCase {
	return []layerCase{
		{
			name:  "Dense",
			make:  func(rng *rand.Rand) Layer { return NewDense(6, 4, rng) },
			input: func(rng *rand.Rand) *tensor.Tensor { return tensor.New(3, 6).FillNormal(rng, 0, 1) },
		},
		{
			name:  "Conv2D",
			make:  func(rng *rand.Rand) Layer { return NewConv2D(2, 3, 3, 3, 1, 1, rng) },
			input: func(rng *rand.Rand) *tensor.Tensor { return tensor.New(2, 2, 5, 5).FillNormal(rng, 0, 1) },
		},
		{
			name:  "ReLU",
			make:  func(rng *rand.Rand) Layer { return NewReLU() },
			input: func(rng *rand.Rand) *tensor.Tensor { return tensor.New(2, 7).FillNormal(rng, 0, 1) },
		},
		{
			name:  "MaxPool2D",
			make:  func(rng *rand.Rand) Layer { return NewMaxPool2D(2, 2) },
			input: func(rng *rand.Rand) *tensor.Tensor { return tensor.New(1, 2, 4, 4).FillNormal(rng, 0, 1) },
		},
		{
			name:  "GlobalAvgPool",
			make:  func(rng *rand.Rand) Layer { return NewGlobalAvgPool() },
			input: func(rng *rand.Rand) *tensor.Tensor { return tensor.New(2, 3, 3, 3).FillNormal(rng, 0, 1) },
		},
		{
			name:  "Flatten",
			make:  func(rng *rand.Rand) Layer { return NewFlatten() },
			input: func(rng *rand.Rand) *tensor.Tensor { return tensor.New(2, 2, 3, 3).FillNormal(rng, 0, 1) },
		},
		{
			name:  "Fire",
			make:  func(rng *rand.Rand) Layer { return NewFire(2, 2, 3, 3, rng) },
			input: func(rng *rand.Rand) *tensor.Tensor { return tensor.New(1, 2, 4, 4).FillNormal(rng, 0, 1) },
		},
	}
}

// Every layer obeys the Layer contract: deterministic forward, aligned
// params/grads, clone independence, and a backward gradient shaped like
// the input.
func TestLayerContract(t *testing.T) {
	for _, tc := range layerCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			l := tc.make(rng)
			x := tc.input(rng)

			if l.Name() == "" {
				t.Fatal("empty layer name")
			}
			params, grads := l.Params(), l.Grads()
			if len(params) != len(grads) {
				t.Fatalf("params/grads misaligned: %d vs %d", len(params), len(grads))
			}
			for i := range params {
				if !params[i].SameShape(grads[i]) {
					t.Fatalf("param %d shape %v but grad shape %v", i, params[i].Shape(), grads[i].Shape())
				}
			}

			// Deterministic forward (train=true for everything except
			// dropout-like layers, none of which are in this table).
			y1 := l.Forward(x, true)
			y2 := l.Forward(x, true)
			if !y1.Equal(y2) {
				t.Fatal("forward is not deterministic")
			}

			// Backward returns an input-shaped gradient.
			dout := fill(y1.Clone(), 1)
			dx := l.Backward(dout)
			if !dx.SameShape(x) {
				t.Fatalf("backward shape %v, want input shape %v", dx.Shape(), x.Shape())
			}

			// Clone is structurally identical but parameter-independent.
			c := l.Clone()
			cp := c.Params()
			if len(cp) != len(params) {
				t.Fatal("clone changed parameter count")
			}
			for i := range params {
				if !cp[i].Equal(params[i]) {
					t.Fatalf("clone param %d differs", i)
				}
			}
			if len(params) > 0 {
				fill(params[0], 123)
				if cp[0].Equal(params[0]) {
					t.Fatal("clone shares parameter storage")
				}
			}
			// The clone works standalone.
			yc := c.Forward(tc.input(rand.New(rand.NewSource(1))), true)
			if yc.Size() == 0 {
				t.Fatal("clone forward produced nothing")
			}
		})
	}
}

// Gradient accumulation: two backward passes double the parameter
// gradients; ZeroGrads resets them.
func TestLayerGradAccumulation(t *testing.T) {
	for _, tc := range layerCases() {
		rng := rand.New(rand.NewSource(2))
		l := tc.make(rng)
		if len(l.Params()) == 0 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			x := tc.input(rng)
			y := l.Forward(x, true)
			dout := fill(y.Clone(), 0.5)
			l.Backward(dout)
			once := cloneTensors(l.Grads())
			l.Forward(x, true)
			l.Backward(dout)
			for i, g := range l.Grads() {
				for j, v := range g.Data() {
					if math.Abs(v-2*once[i].Data()[j]) > 1e-9 {
						t.Fatalf("grad %d did not accumulate to 2x", i)
					}
				}
			}
			zeroGrads(l)
			for i, g := range l.Grads() {
				for _, v := range g.Data() {
					if v != 0 {
						t.Fatalf("grad %d not cleared", i)
					}
				}
			}
		})
	}
}

// BackwardParams accumulates the same parameter gradients as Backward, bit
// for bit, whatever the first layer is: Dense and Conv2D take their
// parameter-only path, every other layer its full Backward.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	for _, tc := range layerCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			full := NewSequential(tc.make(rng))
			params := full.Clone()
			x := tc.input(rng)
			dout := full.Forward(x, true).Clone().FillNormal(rng, 0, 1)
			params.Forward(x, true)
			full.Backward(dout.Clone())
			params.BackwardParams(dout)
			for i, g := range params.Grads() {
				if !bitEqualTensors(g, full.Grads()[i]) {
					t.Fatalf("grad %d differs from Backward's", i)
				}
			}
		})
	}
}

// zeroGrads clears a layer's accumulated gradients.
func zeroGrads(l Layer) {
	for _, g := range l.Grads() {
		g.Zero()
	}
}

// cloneTensors deep-copies a slice of tensors.
func cloneTensors(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

// fill sets every element of t to v and returns t.
func fill(t *tensor.Tensor, v float64) *tensor.Tensor {
	for i := range t.Data() {
		t.Data()[i] = v
	}
	return t
}
