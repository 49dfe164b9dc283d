package nn_test

import (
	"fmt"
	"math/rand"

	"helcfl/internal/nn"
	"helcfl/internal/tensor"
)

// A complete training step: forward, loss, backward, and the gradient-descent
// update θ ← θ − τ·∇L of Eq. 3 — the primitive every FL client executes.
func ExampleSequential() {
	rng := rand.New(rand.NewSource(1))
	model := nn.NewMLP(4, []int{8}, 2, rng)
	loss := nn.NewSoftmaxCrossEntropy()

	x := tensor.New(16, 4).FillNormal(rng, 0, 1)
	labels := make([]int, 16)
	for i := range labels {
		if x.Data()[i*4] > 0 {
			labels[i] = 1
		}
	}
	params, grads := model.Params(), model.Grads()
	first := loss.Forward(model.Forward(x, true), labels)
	for step := 0; step < 100; step++ {
		model.ZeroGrads()
		loss.Forward(model.Forward(x, true), labels)
		model.Backward(loss.Backward())
		for i, g := range grads {
			params[i].AXPY(-0.1, g)
		}
	}
	last := loss.Forward(model.Forward(x, false), labels)
	fmt.Println(last < first)
	// Output:
	// true
}

// ModelSpec lets every FL participant rebuild an identical architecture
// and exchange parameters as flat vectors or wire payloads.
func ExampleModelSpec() {
	spec := nn.ModelSpec{Kind: "squeezenet-mini", InC: 3, H: 8, W: 8, Classes: 10}
	m := spec.Build(rand.New(rand.NewSource(1)))
	fmt.Printf("%d parameters, %d-bit upload\n", m.NumParams(), int(nn.ModelBits(m)))
	// Output:
	// 3802 parameters, 121728-bit upload
}
