package fl

import (
	"math"
	"math/rand"
	"testing"

	"helcfl/internal/dataset"
	"helcfl/internal/nn"
)

// The Eq. (19) identity holds for exactly one local GD step. With more
// local steps FedAvg and centralized GD genuinely diverge (client drift) —
// this negative test pins the boundary of the paper's theoretical argument.
func TestEq19BreaksWithMultipleLocalSteps(t *testing.T) {
	synth := dataset.GenerateSynth(dataset.SynthConfig{
		Classes: 4, C: 2, H: 4, W: 4, TrainN: 120, TestN: 40, Noise: 0.6, Seed: 42,
	})
	rng := rand.New(rand.NewSource(1))
	part := dataset.PartitionNonIID(synth.Train, 4, 8, 2, rng)
	users := dataset.UserDatasets(synth.Train, part)
	spec := nn.ModelSpec{Kind: "logistic", InC: 2, H: 4, W: 4, Classes: 4}
	global := spec.Build(rand.New(rand.NewSource(2)))
	globalFlat := global.GetFlatParams()
	lr := 0.2

	fedAvgAfter := func(steps int) []float64 {
		uploads := make([][]float64, len(users))
		weights := make([]int, len(users))
		for q, d := range users {
			c := NewClient(q, d, global.Clone(), true)
			flat, _ := c.LocalUpdate(globalFlat, lr, steps)
			uploads[q] = flat
			weights[q] = d.N()
		}
		return fedAvg(uploads, weights)
	}
	centralAfter := func(steps int) []float64 {
		c := NewClient(0, synth.Train, global.Clone(), true)
		flat, _ := c.LocalUpdate(globalFlat, lr, steps)
		return flat
	}

	dist := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	}

	// One step: identity holds to numerical precision.
	if d := dist(fedAvgAfter(1), centralAfter(1)); d > 1e-9 {
		t.Fatalf("Eq.19 with 1 step: distance %g, want ≈0", d)
	}
	// Three steps: under a Non-IID partition the trajectories split.
	if d := dist(fedAvgAfter(3), centralAfter(3)); d < 1e-6 {
		t.Fatalf("3 local steps should diverge from centralized GD, distance %g", d)
	}
}

// End-to-end FL with the SqueezeNet-style CNN: the convolutional path,
// parameter flattening, and FedAvg all compose. Slow, so scaled down and
// skipped in -short runs.
func TestRunWithSqueezeNetMini(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN federated round is slow")
	}
	synth := dataset.GenerateSynth(dataset.SynthConfig{
		Classes: 4, C: 3, H: 8, W: 8, TrainN: 80, TestN: 40, Noise: 0.5, Seed: 7,
	})
	rng := rand.New(rand.NewSource(3))
	env := newTestEnv(t, 40, 4)
	part := dataset.PartitionIID(synth.Train, 4, rng)
	users := dataset.UserDatasets(synth.Train, part)
	for q, d := range env.devs {
		d.NumSamples = users[q].N()
	}
	res, err := Run(Config{
		Spec:       nn.ModelSpec{Kind: "squeezenet-mini", InC: 3, H: 8, W: 8, Classes: 4},
		Devices:    env.devs,
		Channel:    env.ch,
		UserData:   users,
		Test:       synth.Test,
		Planner:    allUsersPlanner(env.devs),
		LR:         0.1,
		LocalSteps: 1,
		MaxRounds:  8,
		EvalEvery:  4,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestAccuracy <= 0.1 {
		t.Fatalf("CNN FL below chance: %g", res.BestAccuracy)
	}
	if res.ModelBits <= 0 {
		t.Fatal("CNN model bits unset")
	}
	first := res.Records[0].TrainLoss
	last := res.Records[len(res.Records)-1].TrainLoss
	if last >= first {
		t.Fatalf("CNN loss did not decrease: %g → %g", first, last)
	}
}
