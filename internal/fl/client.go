package fl

import (
	"fmt"

	"helcfl/internal/dataset"
	"helcfl/internal/nn"
	"helcfl/internal/tensor"
)

// LocalUpdate is the one Eq. (3) loop on the product path — the engine's
// per-worker trainers, Client, and deploy.Client all train through it:
// `steps` full-batch gradient-descent passes of m over (x, labels) at
// learning rate lr, returning the final local training loss.
//
// A non-nil global first overwrites m's parameters (the broadcast of
// Algorithm 1, line 5) and anchors a FedProx proximal term (Li et al.,
// MLSys'20): each step descends ∇[L(θ) + (μ/2)·‖θ − θ_G‖²], which tames
// the client drift of multiple local steps under Non-IID data (see the
// Eq. 19 boundary test) — an extension beyond the paper; μ = 0 is plain
// Eq. (3). A nil global trains on from m's current parameters (separated
// learning, a model loaded off the wire) and requires μ = 0. A non-nil dst
// of m.NumParams() elements receives the updated flat parameters — the
// upload payload.
func LocalUpdate(m *nn.Sequential, loss *nn.SoftmaxCrossEntropy, x *tensor.Tensor, labels []int, global []float64, lr float64, steps int, mu float64, dst []float64) float64 {
	if steps <= 0 {
		panic(fmt.Sprintf("fl: non-positive local steps %d", steps))
	}
	if mu < 0 || (mu != 0 && global == nil) {
		panic(fmt.Sprintf("fl: proximal weight %g is negative or has no global model to anchor to", mu))
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
		// θ ← θ - τ·(∇L + μ(θ − θ_G)); with μ=0 this is exactly Eq. (3)
		// (the mean over |D_q| is inside the softmax-CE loss).
		params, grads := m.Params(), m.Grads()
		off := 0
		for i, p := range params {
			g := grads[i]
			if mu != 0 {
				pd, gd := p.Data(), g.Data()
				for j := range pd {
					gd[j] += mu * (pd[j] - global[off+j])
				}
			}
			p.AXPY(-lr, g)
			off += p.Size()
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

// Client is a user device that owns a model: the separated-learning
// baseline (RunSL), where every user's model persists across rounds, and
// tests that need a reference local update. The FL engine holds none — a
// user's model never survives a round there, so it trains the whole cohort
// on a few worker-owned models instead; see Engine.
type Client struct {
	// User is the device index.
	User int
	// Data is the local dataset D_q.
	Data *dataset.Dataset

	model *nn.Sequential
	x     *tensor.Tensor
	loss  *nn.SoftmaxCrossEntropy
	flat  []float64 // reused upload buffer, valid until the next update
}

// NewClient builds a client around a model instance structurally identical
// to the global model.
func NewClient(user int, data *dataset.Dataset, model *nn.Sequential, flattenInput bool) *Client {
	if data == nil || data.N() == 0 {
		panic(fmt.Sprintf("fl: client %d has no data", user))
	}
	return &Client{User: user, Data: data, model: model, x: modelInput(data, flattenInput), loss: nn.NewSoftmaxCrossEntropy()}
}

// LocalUpdate implements Eq. (3): starting from the broadcast global
// parameters, run `steps` full-batch gradient-descent passes over the local
// dataset at learning rate lr, and return the updated flat parameter vector
// (the upload payload) along with the final local training loss.
func (c *Client) LocalUpdate(globalFlat []float64, lr float64, steps int) ([]float64, float64) {
	return c.LocalUpdateProx(globalFlat, lr, steps, 0)
}

// LocalUpdateProx is LocalUpdate with a FedProx proximal weight μ (see the
// package-level LocalUpdate). The returned slice is the client's internal
// upload buffer, reused on the next update — callers that need it past that
// point must copy it.
func (c *Client) LocalUpdateProx(globalFlat []float64, lr float64, steps int, mu float64) ([]float64, float64) {
	if len(c.flat) != c.model.NumParams() {
		c.flat = make([]float64, c.model.NumParams())
	}
	return c.flat, LocalUpdate(c.model, c.loss, c.x, c.Data.Labels, globalFlat, lr, steps, mu, c.flat)
}

// Model exposes the client's model (used by the SL engine, where the model
// is persistent per user rather than overwritten each round).
func (c *Client) Model() *nn.Sequential { return c.model }

// TrainOwn runs `steps` GD passes on the client's persistent model without
// resetting from a global model — the separated-learning update.
func (c *Client) TrainOwn(lr float64, steps int) float64 {
	return LocalUpdate(c.model, c.loss, c.x, c.Data.Labels, nil, lr, steps, 0, nil)
}
