package nn

import (
	"math"
	"math/rand"
	"testing"

	"helcfl/internal/tensor"
)

func TestReLUForward(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float64{-1, 0, 2}, 1, 3)
	y := r.Forward(x, true)
	want := tensor.FromSlice([]float64{0, 0, 2}, 1, 3)
	if !y.Equal(want) {
		t.Fatalf("ReLU = %v, want %v", y, want)
	}
	if x.Data()[0] != -1 {
		t.Fatal("ReLU must not mutate its input")
	}
}

func TestMaxPoolForwardKnown(t *testing.T) {
	p := NewMaxPool2D(2, 2)
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 1, 4, 4)
	y := p.Forward(x, true)
	want := tensor.FromSlice([]float64{4, 8, 12, 16}, 1, 1, 2, 2)
	if !y.Equal(want) {
		t.Fatalf("MaxPool = %v, want %v", y, want)
	}
}

func TestGlobalAvgPoolForward(t *testing.T) {
	g := NewGlobalAvgPool()
	x := tensor.FromSlice([]float64{
		1, 2, 3, 4, // channel 0: mean 2.5
		10, 10, 10, 10, // channel 1: mean 10
	}, 1, 2, 2, 2)
	y := g.Forward(x, true)
	if y.Dim(0) != 1 || y.Dim(1) != 2 {
		t.Fatalf("shape = %v", y.Shape())
	}
	if y.Data()[0] != 2.5 || y.Data()[1] != 10 {
		t.Fatalf("GlobalAvgPool = %v", y)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := tensor.New(2, 3, 2, 2).FillNormal(rand.New(rand.NewSource(3)), 0, 1)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 12 {
		t.Fatalf("flatten shape = %v", y.Shape())
	}
	back := f.Backward(y)
	if !back.Equal(x) {
		t.Fatal("Flatten backward must invert the reshape")
	}
}

func TestConcatSplitChannelsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := tensor.New(2, 3, 2, 2).FillNormal(rng, 0, 1)
	b := tensor.New(2, 5, 2, 2).FillNormal(rng, 0, 1)
	cat := tensor.New(2, 8, 2, 2)
	concatChannelsInto(cat, a, b)
	if cat.Dim(1) != 8 {
		t.Fatalf("concat channels = %d, want 8", cat.Dim(1))
	}
	a2, b2 := tensor.New(2, 3, 2, 2), tensor.New(2, 5, 2, 2)
	splitChannelsInto(a2, b2, cat)
	if !a2.Equal(a) || !b2.Equal(b) {
		t.Fatal("split must invert concat")
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	loss := NewSoftmaxCrossEntropy()
	// Uniform logits over K classes → loss = ln(K).
	logits := tensor.New(2, 4)
	got := loss.Forward(logits, []int{0, 3})
	if math.Abs(got-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform CE = %g, want ln4 = %g", got, math.Log(4))
	}
	// Probabilities must sum to 1 per row.
	probs := loss.probs
	for i := 0; i < 2; i++ {
		s := 0.0
		for j := 0; j < 4; j++ {
			s += probs.Data()[i*4+j]
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("probs row %d sums to %g", i, s)
		}
	}
}

func TestSoftmaxCrossEntropyGradientSumsToZeroPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	loss := NewSoftmaxCrossEntropy()
	logits := tensor.New(3, 5).FillNormal(rng, 0, 2)
	loss.Forward(logits, []int{1, 0, 4})
	d := loss.Backward()
	for i := 0; i < 3; i++ {
		s := 0.0
		for j := 0; j < 5; j++ {
			s += d.Data()[i*5+j]
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("gradient row %d sums to %g, want 0", i, s)
		}
	}
}

func TestSoftmaxCrossEntropyNumericalStability(t *testing.T) {
	loss := NewSoftmaxCrossEntropy()
	logits := tensor.FromSlice([]float64{1e4, -1e4, 0}, 1, 3)
	got := loss.Forward(logits, []int{0})
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("CE with huge logits = %g", got)
	}
	if got > 1e-6 {
		t.Fatalf("CE with dominant correct logit = %g, want ≈0", got)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		1, 3, 2,
		5, 0, 0,
	}, 2, 3)
	if got := Accuracy(logits, []int{1, 0}); got != 1 {
		t.Fatalf("Accuracy = %g, want 1", got)
	}
	if got := Accuracy(logits, []int{0, 0}); got != 0.5 {
		t.Fatalf("Accuracy = %g, want 0.5", got)
	}
}

func TestSequentialCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMLP(4, []int{5}, 3, rng)
	c := m.Clone()
	fill(c.Params()[0], 0)
	if m.Params()[0].Equal(c.Params()[0]) {
		t.Fatal("clone params must be independent")
	}
	if m.NumParams() != c.NumParams() {
		t.Fatal("clone must preserve parameter count")
	}
}

func TestFlatParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP(4, []int{5}, 3, rng)
	flat := m.GetFlatParams()
	c := m.Clone()
	for i := range flat {
		flat[i] += 1
	}
	c.SetFlatParams(flat)
	diff := c.Params()[0].Data()[0] - m.Params()[0].Data()[0]
	if math.Abs(diff-1) > 1e-12 {
		t.Fatalf("flat round-trip offset = %g, want 1", diff)
	}
}

func TestSetFlatParamsWrongLengthPanics(t *testing.T) {
	m := NewLogistic(3, 2, rand.New(rand.NewSource(8)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong-length vector")
		}
	}()
	m.SetFlatParams(make([]float64, 3))
}

func TestParamBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMLP(6, []int{4}, 3, rng)
	payload := ParamBytes(m)
	wantLen := 8 + 4*m.NumParams()
	if len(payload) != wantLen {
		t.Fatalf("payload length %d, want %d", len(payload), wantLen)
	}
	c := m.Clone()
	for _, p := range c.Params() {
		fill(p, 0)
	}
	if err := LoadParamBytes(c, payload); err != nil {
		t.Fatal(err)
	}
	// float32 quantization bounds the round-trip error.
	a, b := m.GetFlatParams(), c.GetFlatParams()
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-6 {
			t.Fatalf("param %d differs: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestLoadParamBytesRejectsCorrupt(t *testing.T) {
	m := NewLogistic(2, 2, rand.New(rand.NewSource(10)))
	if err := LoadParamBytes(m, []byte{1, 2, 3}); err == nil {
		t.Fatal("short payload must error")
	}
	payload := ParamBytes(m)
	payload[0] ^= 0xFF
	if err := LoadParamBytes(m, payload); err == nil {
		t.Fatal("bad magic must error")
	}
	other := NewLogistic(3, 2, rand.New(rand.NewSource(11)))
	if err := LoadParamBytes(other, ParamBytes(m)); err == nil {
		t.Fatal("mismatched model must error")
	}
}

func TestModelBitsMatchesParamCount(t *testing.T) {
	m := NewLogistic(10, 4, rand.New(rand.NewSource(12)))
	want := float64(8+4*m.NumParams()) * 8
	if got := ModelBits(m); got != want {
		t.Fatalf("ModelBits = %g, want %g", got, want)
	}
}

func TestModelSpecBuilders(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, spec := range []ModelSpec{
		{Kind: "logistic", InC: 3, H: 8, W: 8, Classes: 10},
		{Kind: "mlp", InC: 3, H: 8, W: 8, Classes: 10, Hidden: []int{32}},
		{Kind: "squeezenet-mini", InC: 3, H: 8, W: 8, Classes: 10},
	} {
		m := spec.Build(rng)
		if m.NumParams() == 0 {
			t.Fatalf("%s: no parameters", spec.Kind)
		}
		var x *tensor.Tensor
		if spec.FlattensInput() {
			x = tensor.New(2, spec.InputDim()).FillNormal(rng, 0, 1)
		} else {
			x = tensor.New(2, spec.InC, spec.H, spec.W).FillNormal(rng, 0, 1)
		}
		y := m.Forward(x, false)
		if y.Dim(0) != 2 || y.Dim(1) != spec.Classes {
			t.Fatalf("%s: output shape %v", spec.Kind, y.Shape())
		}
	}
}

func TestModelSpecUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown kind")
		}
	}()
	ModelSpec{Kind: "transformer"}.Build(rand.New(rand.NewSource(1)))
}

// Training sanity: GD on a linearly separable 2-class problem must drive the
// loss down and reach perfect training accuracy.
func TestTrainingConvergesOnSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 40
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		cx := float64(cls*4 - 2)
		x.Set(cx+rng.NormFloat64()*0.5, i, 0)
		x.Set(rng.NormFloat64()*0.5, i, 1)
		labels[i] = cls
	}
	m := NewLogistic(2, 2, rng)
	loss := NewSoftmaxCrossEntropy()
	params, grads := m.Params(), m.Grads()
	first := loss.Forward(m.Forward(x, true), labels)
	for it := 0; it < 200; it++ {
		m.ZeroGrads()
		loss.Forward(m.Forward(x, true), labels)
		m.Backward(loss.Backward())
		for i, g := range grads {
			params[i].AXPY(-0.5, g) // Eq. (3)
		}
	}
	last := loss.Forward(m.Forward(x, false), labels)
	if last >= first {
		t.Fatalf("loss did not decrease: %g → %g", first, last)
	}
	if acc := Accuracy(m.Forward(x, false), labels); acc != 1 {
		t.Fatalf("training accuracy = %g, want 1", acc)
	}
}

func TestSequentialNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := NewMLP(4, []int{3}, 2, rng)
	if m.NumParams() != 4*3+3+3*2+2 {
		t.Fatalf("NumParams = %d", m.NumParams())
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	for _, l := range []Layer{
		NewDense(2, 2, rand.New(rand.NewSource(1))),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewGlobalAvgPool(),
		NewFlatten(),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic for backward before forward", l.Name())
				}
			}()
			l.Backward(tensor.New(1, 2))
		}()
	}
}
