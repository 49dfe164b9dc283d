package nn

import (
	"fmt"
	"math/rand"
)

// ModelSpec names a network architecture so that every FL participant can
// construct structurally identical models and exchange flat parameter
// vectors.
type ModelSpec struct {
	// Kind selects the builder: "mlp", "logistic", or "squeezenet-mini".
	Kind string
	// InC, H, W describe the input image (convolutional kinds) or combine
	// into the flat input dimension InC*H*W (dense kinds).
	InC, H, W int
	// Classes is the output dimensionality.
	Classes int
	// Hidden lists hidden-layer widths for the MLP kind.
	Hidden []int
}

// InputDim returns the flattened input dimensionality.
func (s ModelSpec) InputDim() int { return s.InC * s.H * s.W }

// Build constructs the model with fresh parameters drawn from rng.
func (s ModelSpec) Build(rng *rand.Rand) *Sequential {
	switch s.Kind {
	case "mlp":
		return NewMLP(s.InputDim(), s.Hidden, s.Classes, rng)
	case "logistic":
		return NewLogistic(s.InputDim(), s.Classes, rng)
	case "squeezenet-mini":
		return NewSqueezeNetMini(s.InC, s.Classes, rng)
	default:
		panic(fmt.Sprintf("nn: unknown model kind %q", s.Kind))
	}
}

// FlattensInput reports whether the model consumes flat (B, D) inputs
// rather than (B, C, H, W) images.
func (s ModelSpec) FlattensInput() bool {
	return s.Kind == "mlp" || s.Kind == "logistic"
}

// NewMLP returns a multilayer perceptron with ReLU activations between
// hidden layers and linear logits at the output.
func NewMLP(in int, hidden []int, classes int, rng *rand.Rand) *Sequential {
	m := NewSequential()
	prev := in
	for _, h := range hidden {
		m.Add(NewDense(prev, h, rng)).Add(NewReLU())
		prev = h
	}
	m.Add(NewDense(prev, classes, rng))
	return m
}

// NewLogistic returns multinomial logistic regression (a single linear
// layer; softmax lives in the loss).
func NewLogistic(in, classes int, rng *rand.Rand) *Sequential {
	return NewSequential(NewDense(in, classes, rng))
}

// NewSqueezeNetMini returns a SqueezeNet-style CNN scaled for small (8×8)
// synthetic images: a stem convolution, two Fire modules separated by max
// pooling, a 1×1 classifier convolution, and global average pooling —
// the same squeeze/expand architecture family as the paper's SqueezeNet,
// sized to train in simulation.
func NewSqueezeNetMini(inC, classes int, rng *rand.Rand) *Sequential {
	return NewSequential(
		NewConv2D(inC, 16, 3, 3, 1, 1, rng), // stem: 8x8 → 8x8
		NewReLU(),
		NewMaxPool2D(2, 2), // 8x8 → 4x4
		NewFire(16, 8, 16, 16, rng),
		NewFire(32, 8, 16, 16, rng),
		NewConv2D(32, classes, 1, 1, 1, 0, rng), // classifier conv
		NewGlobalAvgPool(),
	)
}
