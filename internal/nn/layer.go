// Package nn is a from-scratch neural-network substrate: layers with explicit
// forward/backward passes, the softmax cross-entropy loss, model builders
// (MLP, logistic regression, and a SqueezeNet-style Fire-module CNN), and
// parameter (de)serialization. The gradient-descent update itself (Eq. 3)
// lives in fl.LocalUpdate.
//
// It exists because the HELCFL paper trains SqueezeNet on user devices; no
// mature Go deep-learning stack is available offline, so the training engine
// is built here on top of internal/tensor. All layers use a batch-first
// convention: dense layers take (B, features); convolutional layers take
// (B, C, H, W).
package nn

import "helcfl/internal/tensor"

// Layer is one differentiable stage of a network.
//
// Forward computes the layer output for a batch and caches whatever the
// backward pass needs. Backward consumes the gradient of the loss with
// respect to the layer output and returns the gradient with respect to the
// layer input, accumulating parameter gradients internally. A layer must be
// used in strict Forward-then-Backward order.
//
// Forward must be row-independent: row i of its output depends only on row
// i of its input and the parameters, bit for bit, whatever other rows share
// the batch and whatever batches the layer saw before. Evaluation in
// internal/fl relies on it to cut the test set into row ranges on several
// workers and still get the bits of one serial pass. A layer that couples
// rows (a BatchNorm that normalizes with batch statistics, say) breaks that
// contract; TestForwardIsRowIndependent fails on it.
type Layer interface {
	// Name identifies the layer kind for diagnostics.
	Name() string
	// Forward runs the layer on a batch. train marks a pass that a Backward
	// follows; no layer here reads it, as none behaves differently at
	// inference.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates the output gradient to the input and accumulates
	// parameter gradients.
	Backward(dout *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameter tensors (possibly empty).
	// Mutating them changes the layer.
	Params() []*tensor.Tensor
	// Grads returns the gradient tensors aligned 1:1 with Params.
	Grads() []*tensor.Tensor
	// Clone returns a deep copy with independent parameters and gradients.
	Clone() Layer
}
