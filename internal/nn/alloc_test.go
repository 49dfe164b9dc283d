package nn

import (
	"math"
	"math/rand"
	"testing"

	"helcfl/internal/tensor"
)

// trainStep runs one full-batch GD step: zero grads, forward, loss,
// backward, SGD-style parameter update — the exact shape of the client-side
// hot loop in internal/fl, which backpropagates with BackwardParams; the
// gates below run it with Backward too.
func trainStep(m *Sequential, loss *SoftmaxCrossEntropy, x *tensor.Tensor, labels []int, lr float64, paramsOnly bool) float64 {
	m.ZeroGrads()
	logits := m.Forward(x, true)
	l := loss.Forward(logits, labels)
	if paramsOnly {
		m.BackwardParams(loss.Backward())
	} else {
		m.Backward(loss.Backward())
	}
	params, grads := m.Params(), m.Grads()
	for i, p := range params {
		p.AXPY(-lr, grads[i])
	}
	return l
}

// allocSpecs are the model kinds the experiments build; between them they
// cover Dense, ReLU, Conv2D, MaxPool2D, Fire, GlobalAvgPool and the loss.
var allocSpecs = []ModelSpec{
	{Kind: "logistic", InC: 3, H: 8, W: 8, Classes: 10},
	{Kind: "mlp", InC: 3, H: 8, W: 8, Classes: 10, Hidden: []int{32, 16}},
	{Kind: "squeezenet-mini", InC: 3, H: 8, W: 8, Classes: 10},
}

// randomBatch draws one labelled batch shaped for spec.
func randomBatch(spec ModelSpec, batch int, rng *rand.Rand) (*tensor.Tensor, []int) {
	var x *tensor.Tensor
	if spec.FlattensInput() {
		x = tensor.New(batch, spec.InputDim())
	} else {
		x = tensor.New(batch, spec.InC, spec.H, spec.W)
	}
	x.FillNormal(rng, 0, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(spec.Classes)
	}
	return x, labels
}

// forEachBackward runs body as one subtest per backward pass a training
// step can take: Backward, and BackwardParams (the one internal/fl uses).
func forEachBackward(t *testing.T, body func(t *testing.T, paramsOnly bool)) {
	t.Run("Backward", func(t *testing.T) { body(t, false) })
	t.Run("BackwardParams", func(t *testing.T) { body(t, true) })
}

// TestTrainStepZeroAllocs pins zero steady-state heap allocations for a
// full training step on every model kind the experiments build, through
// both backward passes. Layer scratch is allocated on the first (warm-up)
// step and reused afterwards.
func TestTrainStepZeroAllocs(t *testing.T) {
	for _, spec := range allocSpecs {
		t.Run(spec.Kind, func(t *testing.T) {
			forEachBackward(t, func(t *testing.T, paramsOnly bool) {
				rng := rand.New(rand.NewSource(11))
				m := spec.Build(rng)
				loss := NewSoftmaxCrossEntropy()
				x, labels := randomBatch(spec, 16, rng)
				trainStep(m, loss, x, labels, 0.05, paramsOnly) // warm-up: allocates scratch
				n := testing.AllocsPerRun(20, func() {
					trainStep(m, loss, x, labels, 0.05, paramsOnly)
				})
				if n != 0 {
					t.Errorf("%s steady-state training step allocates %v times, want 0", spec.Kind, n)
				}
			})
		})
	}
}

// TestTrainStepZeroAllocsAlternatingBatches is the gate for one model
// serving users with different |D_q| (the engine's per-worker trainers):
// once every layer's scratch has seen the larger batch, alternating between
// two batch sizes reslices that scratch in place and allocates nothing. The
// small batch warms up first, so the large one has to grow every layer.
func TestTrainStepZeroAllocsAlternatingBatches(t *testing.T) {
	for _, spec := range allocSpecs {
		t.Run(spec.Kind, func(t *testing.T) {
			forEachBackward(t, func(t *testing.T, paramsOnly bool) {
				rng := rand.New(rand.NewSource(13))
				m := spec.Build(rng)
				loss := NewSoftmaxCrossEntropy()
				xs, ls := randomBatch(spec, 9, rng)
				xl, ll := randomBatch(spec, 16, rng)
				trainStep(m, loss, xs, ls, 0.05, paramsOnly)
				trainStep(m, loss, xl, ll, 0.05, paramsOnly)
				n := testing.AllocsPerRun(20, func() {
					trainStep(m, loss, xs, ls, 0.05, paramsOnly)
					trainStep(m, loss, xl, ll, 0.05, paramsOnly)
				})
				if n != 0 {
					t.Errorf("%s alternating 9- and 16-sample steps allocates %v times, want 0", spec.Kind, n)
				}
			})
		})
	}
}

// TestConv2DParallelMatchesSerial drives a Conv2D batch large enough to
// cross the kernel parallel threshold and pins bit-identity of forward
// outputs and all gradients between 1-worker and multi-worker runs.
// Meaningful under -race: batch shards must stay disjoint.
func TestConv2DParallelMatchesSerial(t *testing.T) {
	build := func() (*Conv2D, *tensor.Tensor, *tensor.Tensor) {
		rng := rand.New(rand.NewSource(12))
		// 16·(8·3·3)·256 positions ≈ 8.5M im2col cells and a
		// (16, 72)×(72, 16·256) matmul ≥ parallelMinFlops.
		c := NewConv2D(8, 16, 3, 3, 1, 1, rng)
		x := tensor.New(16, 8, 16, 16).FillNormal(rng, 0, 1)
		dy := tensor.New(16, 16, 16, 16).FillNormal(rng, 0, 1)
		return c, x, dy
	}

	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	cs, xs, dys := build()
	wantY := cs.Forward(xs, true).Clone()
	wantDX := cs.Backward(dys).Clone()
	wantDW := cs.Grads()[0].Clone()
	wantDB := cs.Grads()[1].Clone()

	for _, w := range []int{2, 4} {
		tensor.SetWorkers(w)
		cp, xp, dyp := build()
		y := cp.Forward(xp, true)
		if !bitEqualTensors(y, wantY) {
			t.Fatalf("parallel Conv2D forward (workers=%d) diverges from serial", w)
		}
		dx := cp.Backward(dyp)
		if !bitEqualTensors(dx, wantDX) {
			t.Fatalf("parallel Conv2D input gradient (workers=%d) diverges", w)
		}
		if !bitEqualTensors(cp.Grads()[0], wantDW) || !bitEqualTensors(cp.Grads()[1], wantDB) {
			t.Fatalf("parallel Conv2D parameter gradients (workers=%d) diverge", w)
		}
	}
}

// bitEqualTensors compares raw float64 bits, not values, so negative zeros
// and NaNs count too.
func bitEqualTensors(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}
