package nn

import "helcfl/internal/tensor"

// Layer scratch management. Each layer owns the tensors it returns from
// Forward/Backward and reuses them across steps whenever their capacity
// covers the requested shape: a repeated batch shape is a no-op, a smaller
// or previously seen larger batch reslices the same backing array in place
// (tensor.Fit*), and only a batch beyond the high-water mark allocates. One
// model can therefore serve users with different |D_q| — the engine's
// per-worker trainers, fl.Evaluate's short last chunk — and still perform
// zero heap allocations per step once it has seen its largest batch. Every
// kernel fully overwrites the scratch it is handed, so the stale contents a
// reslice exposes never reach a result. The shape checks are hand-rolled
// (not variadic) because a variadic call would itself allocate the shape
// slice on every hot-path invocation.
//
// The contract this imposes on callers: a tensor returned by Forward or
// Backward is valid until the next Forward/Backward call on the same layer,
// which may overwrite it or change its shape in place. The training loop
// consumes each output immediately, so nothing observes the reuse.

// ensure2 returns t resized in place to (d0, d1) when its capacity allows,
// else a fresh tensor.
func ensure2(t *tensor.Tensor, d0, d1 int) *tensor.Tensor {
	if t != nil && t.Fit2(d0, d1) {
		return t
	}
	return tensor.New(d0, d1)
}

// ensure4 returns t resized in place to (d0, d1, d2, d3) when its capacity
// allows, else a fresh tensor.
func ensure4(t *tensor.Tensor, d0, d1, d2, d3 int) *tensor.Tensor {
	if t != nil && t.Fit4(d0, d1, d2, d3) {
		return t
	}
	return tensor.New(d0, d1, d2, d3)
}

// ensureLike returns t resized in place to ref's shape when its capacity
// allows, else a fresh tensor shaped like ref.
func ensureLike(t, ref *tensor.Tensor) *tensor.Tensor {
	return ensureShape(t, ref.Shape())
}

// ensureShape returns t resized in place to the given shape when its
// capacity allows, else a fresh tensor.
func ensureShape(t *tensor.Tensor, shape []int) *tensor.Tensor {
	if t != nil && t.FitShape(shape) {
		return t
	}
	return tensor.New(shape...)
}
