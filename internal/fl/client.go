package fl

import (
	"fmt"

	"helcfl/internal/dataset"
	"helcfl/internal/nn"
	"helcfl/internal/tensor"
)

// LocalUpdate is the one Eq. (3) loop on the product path — the engine's
// per-worker trainers, RunSL's per-user models, and deploy.Client all train
// through it: `steps` full-batch gradient-descent passes of m over
// (x, labels) at learning rate lr, returning the final local training loss.
//
// A non-nil global first overwrites m's parameters (the broadcast of
// Algorithm 1, line 5); a nil global trains on from m's current parameters
// (separated learning, a model loaded off the wire). A non-nil dst of
// m.NumParams() elements receives the updated flat parameters — the upload
// payload.
func LocalUpdate(m *nn.Sequential, loss *nn.SoftmaxCrossEntropy, x *tensor.Tensor, labels []int, global []float64, lr float64, steps int, dst []float64) float64 {
	if steps <= 0 {
		panic(fmt.Sprintf("fl: non-positive local steps %d", steps))
	}
	if global != nil {
		m.SetFlatParams(global)
	}
	lossVal := 0.0
	for s := 0; s < steps; s++ {
		m.ZeroGrads()
		logits := m.Forward(x, true)
		lossVal = loss.Forward(logits, labels)
		m.BackwardParams(loss.Backward())
		// θ ← θ - τ·∇L, Eq. (3) (the mean over |D_q| is inside the
		// softmax-CE loss).
		grads := m.Grads()
		for i, p := range m.Params() {
			p.AXPY(-lr, grads[i])
		}
	}
	if dst != nil {
		m.FlatParamsInto(dst)
	}
	return lossVal
}

// modelInput returns what a model trains on: the (N, C·H·W) view for dense
// models, the images otherwise. FlatX allocates a header; callers cache it.
func modelInput(d *dataset.Dataset, flattenInput bool) *tensor.Tensor {
	if flattenInput {
		return d.FlatX()
	}
	return d.X
}
