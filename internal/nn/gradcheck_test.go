package nn

import (
	"math"
	"math/rand"
	"testing"

	"helcfl/internal/tensor"
)

// lossOf runs a forward pass + softmax-CE loss, used by the numeric
// gradient checks below.
func lossOf(m *Sequential, x *tensor.Tensor, labels []int) float64 {
	loss := NewSoftmaxCrossEntropy()
	return loss.Forward(m.Forward(x, true), labels)
}

// checkParamGradients verifies every parameter gradient of m against a
// central finite difference. relTol bounds |analytic-numeric| relative to
// scale max(1e-4, |numeric|).
func checkParamGradients(t *testing.T, m *Sequential, x *tensor.Tensor, labels []int, relTol float64) {
	t.Helper()
	m.ZeroGrads()
	loss := NewSoftmaxCrossEntropy()
	loss.Forward(m.Forward(x, true), labels)
	m.Backward(loss.Backward())

	const h = 1e-5
	params, grads := m.Params(), m.Grads()
	for pi, p := range params {
		pd := p.Data()
		gd := grads[pi].Data()
		// Check a deterministic subset to keep runtime sane on big layers.
		stride := 1
		if len(pd) > 64 {
			stride = len(pd) / 64
		}
		for ei := 0; ei < len(pd); ei += stride {
			orig := pd[ei]
			pd[ei] = orig + h
			lp := lossOf(m, x, labels)
			pd[ei] = orig - h
			lm := lossOf(m, x, labels)
			pd[ei] = orig
			numeric := (lp - lm) / (2 * h)
			analytic := gd[ei]
			scale := math.Max(1e-4, math.Abs(numeric))
			if math.Abs(analytic-numeric) > relTol*scale {
				t.Fatalf("param %d elem %d: analytic %.8g vs numeric %.8g", pi, ei, analytic, numeric)
			}
		}
	}
}

// checkInputGradient verifies the gradient flowing out of Backward (w.r.t.
// the input) against finite differences.
func checkInputGradient(t *testing.T, m *Sequential, x *tensor.Tensor, labels []int, relTol float64) {
	t.Helper()
	m.ZeroGrads()
	loss := NewSoftmaxCrossEntropy()
	loss.Forward(m.Forward(x, true), labels)
	dx := m.Backward(loss.Backward())

	const h = 1e-5
	xd := x.Data()
	dd := dx.Data()
	stride := 1
	if len(xd) > 48 {
		stride = len(xd) / 48
	}
	for ei := 0; ei < len(xd); ei += stride {
		orig := xd[ei]
		xd[ei] = orig + h
		lp := lossOf(m, x, labels)
		xd[ei] = orig - h
		lm := lossOf(m, x, labels)
		xd[ei] = orig
		numeric := (lp - lm) / (2 * h)
		scale := math.Max(1e-4, math.Abs(numeric))
		if math.Abs(dd[ei]-numeric) > relTol*scale {
			t.Fatalf("input elem %d: analytic %.8g vs numeric %.8g", ei, dd[ei], numeric)
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewSequential(NewDense(6, 4, rng))
	x := tensor.New(3, 6).FillNormal(rng, 0, 1)
	checkParamGradients(t, m, x, []int{0, 2, 3}, 1e-4)
	checkInputGradient(t, m, x, []int{0, 2, 3}, 1e-4)
}

func TestMLPGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP(5, []int{7, 6}, 3, rng)
	x := tensor.New(4, 5).FillNormal(rng, 0, 1)
	checkParamGradients(t, m, x, []int{0, 1, 2, 0}, 2e-4)
	checkInputGradient(t, m, x, []int{0, 1, 2, 0}, 2e-4)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewSequential(
		NewConv2D(2, 3, 3, 3, 1, 1, rng),
		NewFlatten(),
		NewDense(3*4*4, 3, rng),
	)
	x := tensor.New(2, 2, 4, 4).FillNormal(rng, 0, 1)
	checkParamGradients(t, m, x, []int{0, 2}, 2e-4)
	checkInputGradient(t, m, x, []int{0, 2}, 2e-4)
}

func TestConv2DStrideGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewSequential(
		NewConv2D(1, 2, 2, 2, 2, 0, rng),
		NewFlatten(),
		NewDense(2*2*2, 2, rng),
	)
	x := tensor.New(1, 1, 4, 4).FillNormal(rng, 0, 1)
	checkParamGradients(t, m, x, []int{1}, 2e-4)
	checkInputGradient(t, m, x, []int{1}, 2e-4)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewSequential(
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewDense(1*2*2, 2, rng),
	)
	// Well-separated values avoid argmax ties that break finite differences.
	x := tensor.New(1, 1, 4, 4)
	for i := range x.Data() {
		x.Data()[i] = float64(i*i%17) + 0.01*float64(i)
	}
	checkParamGradients(t, m, x, []int{1}, 2e-4)
	checkInputGradient(t, m, x, []int{1}, 2e-4)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewSequential(
		NewConv2D(1, 3, 1, 1, 1, 0, rng),
		NewGlobalAvgPool(),
	)
	x := tensor.New(2, 1, 3, 3).FillNormal(rng, 0, 1)
	checkParamGradients(t, m, x, []int{0, 2}, 2e-4)
	checkInputGradient(t, m, x, []int{0, 2}, 2e-4)
}

func TestFireGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewSequential(
		NewFire(2, 2, 3, 3, rng),
		NewFlatten(),
		NewDense(6*3*3, 2, rng),
	)
	x := tensor.New(1, 2, 3, 3).FillNormal(rng, 0, 1)
	checkParamGradients(t, m, x, []int{1}, 5e-4)
	checkInputGradient(t, m, x, []int{1}, 5e-4)
}

func TestSqueezeNetMiniGradients(t *testing.T) {
	if testing.Short() {
		t.Skip("gradient check over the full CNN is slow")
	}
	rng := rand.New(rand.NewSource(10))
	m := NewSqueezeNetMini(3, 4, rng)
	x := tensor.New(1, 3, 8, 8).FillNormal(rng, 0, 1)
	checkParamGradients(t, m, x, []int{2}, 1e-3)
}

// Flatten reshapes (B, ...) to (B, features): the test fixture that feeds
// convolutional outputs to a Dense head in the gradient checks.
type Flatten struct {
	inShape []int

	// Scratch reused across steps (see scratch.go).
	out, dx *tensor.Tensor
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "Flatten" }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape()...)
	b := x.Dim(0)
	f.out = ensure2(f.out, b, x.Size()/b)
	copy(f.out.Data(), x.Data())
	return f.out
}

// Backward implements Layer.
func (f *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if f.inShape == nil {
		panic("nn: Flatten backward before forward")
	}
	f.dx = ensureShape(f.dx, f.inShape)
	copy(f.dx.Data(), dout.Data())
	return f.dx
}

// Params implements Layer.
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (f *Flatten) Grads() []*tensor.Tensor { return nil }

// Clone implements Layer.
func (f *Flatten) Clone() Layer { return &Flatten{} }
