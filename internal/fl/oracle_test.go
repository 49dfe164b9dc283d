package fl

import (
	"fmt"

	"helcfl/internal/dataset"
	"helcfl/internal/nn"
	"helcfl/internal/tensor"
)

// fedAvgOracle is the one-level Eq. (18) weighted mean written out
// directly — accumulate w·M in upload order, then scale by 1/W — the
// reference FedAvgInto and FedAvgHierInto's single edge are pinned to.
func fedAvgOracle(uploads [][]float64, weights []int) []float64 {
	out := make([]float64, len(uploads[0]))
	totalW := 0.0
	for i, u := range uploads {
		w := float64(weights[i])
		totalW += w
		for j, v := range u {
			out[j] += w * v
		}
	}
	inv := 1 / totalW
	for j := range out {
		out[j] *= inv
	}
	return out
}

// fedAvg is FedAvgInto into a fresh vector.
func fedAvg(uploads [][]float64, weights []int) []float64 {
	out := make([]float64, len(uploads[0]))
	FedAvgInto(out, uploads, weights)
	return out
}

// Client is the reference user device for tests: it owns a model and its
// data and trains through the product LocalUpdate. The engine and RunSL
// hold no Client — the engine trains the cohort on a few worker-owned
// models, RunSL keeps one persistent model per user.
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
// (the upload payload) along with the final local training loss. The
// returned slice is the client's internal upload buffer, reused on the next
// update — callers that need it past that point must copy it.
func (c *Client) LocalUpdate(globalFlat []float64, lr float64, steps int) ([]float64, float64) {
	if len(c.flat) != c.model.NumParams() {
		c.flat = make([]float64, c.model.NumParams())
	}
	return c.flat, LocalUpdate(c.model, c.loss, c.x, c.Data.Labels, globalFlat, lr, steps, c.flat)
}

// Model exposes the client's model.
func (c *Client) Model() *nn.Sequential { return c.model }

// TrainOwn runs `steps` GD passes on the client's persistent model without
// resetting from a global model — the separated-learning update RunSL is
// pinned to.
func (c *Client) TrainOwn(lr float64, steps int) float64 {
	return LocalUpdate(c.model, c.loss, c.x, c.Data.Labels, nil, lr, steps, nil)
}
