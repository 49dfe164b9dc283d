package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"helcfl/internal/dataset"
	"helcfl/internal/nn"
)

func TestConfusionCounting(t *testing.T) {
	c := NewConfusion(3)
	c.Observe(0, 0)
	c.Observe(0, 1)
	c.Observe(1, 1)
	c.Observe(2, 2)
	if c.Total() != 4 {
		t.Fatalf("total = %d", c.Total())
	}
	if got := c.Accuracy(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("accuracy = %g", got)
	}
	if got := c.Recall(0); got != 0.5 {
		t.Fatalf("recall(0) = %g", got)
	}
	if got := c.Recall(1); got != 1 {
		t.Fatalf("recall(1) = %g", got)
	}
}

func TestConfusionDegenerate(t *testing.T) {
	c := NewConfusion(2)
	if c.Accuracy() != 0 || c.Recall(0) != 0 {
		t.Fatal("empty matrix must report zeros")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range observation")
		}
	}()
	c.Observe(0, 5)
}

func TestConfusionString(t *testing.T) {
	c := NewConfusion(2)
	c.Observe(0, 0)
	out := c.String()
	if !strings.Contains(out, "recall") || !strings.Contains(out, "accuracy") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestConfusionOfMatchesAccuracy(t *testing.T) {
	synth := dataset.GenerateSynth(dataset.SynthConfig{
		Classes: 3, C: 1, H: 4, W: 4, TrainN: 90, TestN: 60, Noise: 0.4, Seed: 1,
	})
	rng := rand.New(rand.NewSource(2))
	m := nn.NewLogistic(16, 3, rng)
	// A few training steps so predictions are non-trivial.
	loss := nn.NewSoftmaxCrossEntropy()
	for i := 0; i < 60; i++ {
		m.ZeroGrads()
		loss.Forward(m.Forward(synth.Train.FlatX(), true), synth.Train.Labels)
		m.Backward(loss.Backward())
		for j, p := range m.Params() {
			p.AXPY(-0.3, m.Grads()[j])
		}
	}
	c := ConfusionOf(m, synth.Test, 3, true)
	if c.Total() != 60 {
		t.Fatalf("total = %d", c.Total())
	}
	// Confusion-derived accuracy must equal nn.Accuracy on the same data.
	want := nn.Accuracy(m.Forward(synth.Test.FlatX(), false), synth.Test.Labels)
	if math.Abs(c.Accuracy()-want) > 1e-12 {
		t.Fatalf("confusion accuracy %g != direct accuracy %g", c.Accuracy(), want)
	}
}
